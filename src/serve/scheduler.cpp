#include "serve/scheduler.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "core/roles.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/wire.hpp"

namespace trustddl::serve {
namespace {

constexpr const char* kLog = "serve.scheduler";

}  // namespace

BatchScheduler::BatchScheduler(
    net::Endpoint endpoint, ServeConfig config, int num_clients,
    const std::atomic<std::uint64_t>& answered_batches)
    : endpoint_(endpoint), config_(config), num_clients_(num_clients),
      answered_batches_(answered_batches),
      queue_(config.queue_capacity, config.max_batch_rows) {
  TRUSTDDL_REQUIRE(num_clients >= 1, "serve: need at least one client");
  trace_id_base_ = (obs::wall_epoch_us() / 1000000) << 32;
}

void BatchScheduler::run() {
  std::vector<std::uint64_t> next_seq(static_cast<std::size_t>(num_clients_),
                                      0);
  std::vector<bool> stopped(static_cast<std::size_t>(num_clients_), false);
  int stopped_count = 0;
  while (true) {
    bool progress = false;
    for (int index = 0; index < num_clients_; ++index) {
      const auto slot = static_cast<std::size_t>(index);
      if (stopped[slot]) {
        continue;
      }
      const net::PartyId client = kFirstClientId + index;
      Bytes payload;
      // Notices are read strictly in per-client seq order; seq is the
      // only framing, so concurrent submitters on one client need no
      // wire-level ordering.
      while (endpoint_.try_recv(client, notice_tag(next_seq[slot]),
                                payload)) {
        progress = true;
        ++next_seq[slot];
        const RequestNotice notice = decode_notice(std::move(payload));
        if (notice.kind == NoticeKind::kStop) {
          stopped[slot] = true;
          ++stopped_count;
          break;
        }
        handle_notice(client, notice);
      }
    }

    const auto now = BatchQueue::Clock::now();
    for (const auto& dead : queue_.expire(now)) {
      progress = true;
      ++stats_.deadline_missed;
      obs::count("serve.requests.deadline_missed");
      obs::gauge_add("serve.queue.depth", -1);
      send_control(dead.client, dead.seq, Status::kDeadlineMissed);
    }
    const bool idle = answered_batches_.load() >= stats_.batches;
    if (queue_.should_flush(now, idle)) {
      progress = true;
      obs::count(queue_.full() ? "serve.dispatch.full" : "serve.dispatch.idle");
      dispatch(queue_.pop_batch());
    }
    if (config_.max_batches != 0 && stats_.batches >= config_.max_batches) {
      // Chaos knob: vanish mid-service like a crashed owner — no
      // shutdown manifests, no verdicts for whatever is still queued.
      TRUSTDDL_LOG_WARN(kLog) << "scheduler crashing after "
                              << stats_.batches << " batches (chaos)";
      return;
    }
    if (stopped_count == num_clients_ && queue_.empty()) {
      break;
    }
    if (!progress) {
      std::this_thread::sleep_for(kIdlePoll);
    }
  }

  BatchManifest goodbye;
  goodbye.index = next_manifest_++;
  goodbye.shutdown = true;
  const Bytes payload = encode_manifest(goodbye);
  for (int party = 0; party < core::kComputingParties; ++party) {
    endpoint_.send(party, manifest_tag(goodbye.index), payload);
  }
  TRUSTDDL_LOG_INFO(kLog) << "scheduler done: " << stats_.admitted
                          << " admitted, " << stats_.completed
                          << " dispatched in " << stats_.batches
                          << " batches, " << stats_.rejected << " rejected, "
                          << stats_.deadline_missed << " deadline-missed";
}

void BatchScheduler::handle_notice(net::PartyId client,
                                   const RequestNotice& notice) {
  ++stats_.admitted;
  obs::count("serve.requests.admitted");
  const auto now = BatchQueue::Clock::now();
  BatchQueue::Entry entry;
  entry.client = client;
  entry.seq = notice.seq;
  entry.rows = notice.rows;
  entry.admitted = now;
  entry.deadline =
      now + (notice.deadline_ms != 0
                 ? std::chrono::milliseconds(notice.deadline_ms)
                 : config_.default_deadline);
  if (queue_.push(entry)) {
    obs::gauge_add("serve.queue.depth", 1);
  } else {
    ++stats_.rejected;
    obs::count("serve.requests.rejected");
    send_control(client, notice.seq, Status::kRejected);
  }
}

void BatchScheduler::dispatch(std::vector<BatchQueue::Entry> batch) {
  const auto now = BatchQueue::Clock::now();
  BatchManifest manifest;
  manifest.index = next_manifest_++;
  manifest.trace_id = trace_id_base_ | manifest.index;
  manifest.entries.reserve(batch.size());
  for (const auto& entry : batch) {
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        now - entry.admitted);
    const std::uint64_t queue_us =
        waited.count() > 0 ? static_cast<std::uint64_t>(waited.count()) : 0;
    manifest.entries.push_back({entry.client, entry.seq, entry.rows,
                                queue_us});
    obs::observe("serve.queue.wait.us", queue_us);
  }
  const Bytes payload = encode_manifest(manifest);
  for (int party = 0; party < core::kComputingParties; ++party) {
    endpoint_.send(party, manifest_tag(manifest.index), payload);
  }
  ++stats_.batches;
  stats_.completed += batch.size();
  stats_.batched_rows += manifest.total_rows();
  obs::count("serve.batches");
  obs::count("serve.requests.completed", batch.size());
  obs::observe("serve.batch.rows", manifest.total_rows());
  obs::gauge_add("serve.queue.depth",
                 -static_cast<std::int64_t>(batch.size()));
  obs::HealthState::global().note_progress("serve.last_batch",
                                           manifest.index);
  if (obs::tracing_enabled()) {
    // The owner-side join record for merge_traces.py: which requests
    // ride in this batch and how long each one queued.
    const obs::CorrelationScope corr("batch:" +
                                     std::to_string(manifest.trace_id));
    std::string extra =
        "\"trace_id\": " + std::to_string(manifest.trace_id) +
        ", \"entries\": [";
    for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
      const auto& entry = manifest.entries[i];
      if (i > 0) {
        extra += ", ";
      }
      extra += "{\"client\": " + std::to_string(entry.client) +
               ", \"seq\": " + std::to_string(entry.seq) +
               ", \"rows\": " + std::to_string(entry.rows) +
               ", \"queue_us\": " + std::to_string(entry.queue_us) + "}";
    }
    extra += "]";
    obs::trace_instant("serve.dispatch", core::kModelOwner, manifest.index,
                       extra);
  }
}

void BatchScheduler::send_control(net::PartyId client, std::uint64_t seq,
                                  Status status) {
  endpoint_.send(client, control_tag(seq),
                 encode_control(ControlResponse{status, seq}));
}

}  // namespace trustddl::serve
