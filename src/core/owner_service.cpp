#include "core/owner_service.hpp"

#include <algorithm>
#include <thread>

#include "common/logging.hpp"
#include "mpc/share_serde.hpp"
#include "nn/layers.hpp"
#include "numeric/serde.hpp"

namespace trustddl::core {
namespace {

constexpr const char* kLog = "core.owner";

/// Bound on one fill's dealing cost (entries × mpc::material_cost).
constexpr std::size_t kMaxFillCost = std::size_t{1} << 28;

Shape read_shape(ByteReader& reader) {
  const std::uint64_t rank = reader.read_u64();
  if (rank > mpc::kMaxKeyDims) {
    throw SerializationError("shape rank too large");
  }
  Shape shape(rank);
  for (auto& dim : shape) {
    dim = reader.read_u64();
  }
  return shape;
}

}  // namespace

std::size_t ModelOwnerService::BytesHash::operator()(
    const Bytes& bytes) const {
  // FNV-1a over the payload; requests are tens of bytes.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : bytes) {
    h = (h ^ byte) * 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

ModelOwnerService::ModelOwnerService(net::Endpoint endpoint,
                                     OwnerServiceConfig config)
    : endpoint_(endpoint), config_(config), rng_(config.seed) {}

void ModelOwnerService::run() {
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> grace_deadline;
  for (;;) {
    if (abort_requested_.load(std::memory_order_relaxed)) {
      return;
    }
    bool progress = false;
    for (int party = 0; party < kComputingParties; ++party) {
      const auto slot = static_cast<std::size_t>(party);
      Bytes payload;
      // stop means the party is done: stop polling both its streams.
      if (stopped_[slot]) {
        continue;
      }
      if (endpoint_.try_recv(party,
                             "req/" + std::to_string(next_unary_[slot]),
                             payload)) {
        try {
          handle_unary(party, payload, next_unary_[slot]);
        } catch (const std::exception& error) {
          // Fills are stateless, so dropping one is always safe; no
          // request, however hostile, may take the dealer down.
          TRUSTDDL_LOG_WARN(kLog)
              << "malformed fill request " << next_unary_[slot]
              << " from party " << party << ": " << error.what();
        }
        next_unary_[slot] += 1;
        progress = true;
      }
      if (endpoint_.try_recv(
              party, "col/" + std::to_string(next_collective_[slot]),
              payload)) {
        try {
          handle_collective(party, payload, next_collective_[slot]);
        } catch (const Error& error) {
          TRUSTDDL_LOG_WARN(kLog)
              << "malformed collective request " << next_collective_[slot]
              << " from party " << party << ": " << error.what();
        }
        next_collective_[slot] += 1;
        progress = true;
      }
    }

    // Process collective groups that are complete or past deadline.
    const auto now = Clock::now();
    for (auto& [id, group] : groups_) {
      if (group.processed) {
        continue;
      }
      int members = 0;
      for (const auto& payload : group.payloads) {
        members += payload.has_value() ? 1 : 0;
      }
      const bool complete = members == kComputingParties;
      const bool expired =
          members >= 2 && now > group.created + config_.collect_timeout;
      // Do NOT short-circuit 2-member groups just because two parties
      // already stopped: a live third party's fire-and-forget payloads
      // (weight reveals) may still be in flight, and reconstructing
      // from 2 instead of 3 shares can differ by a few fixed-point
      // ulps once local truncation has decorrelated the share sets.
      // The grace window exists precisely so the straggler can finish;
      // partial groups are only drained at the deadline below.
      if (complete || expired) {
        process_group(id, group);
        progress = true;
      }
    }

    if (stop_count_ >= 2 && !grace_deadline) {
      grace_deadline = now + config_.collect_timeout;
    }
    if (stop_count_ >= kComputingParties ||
        (grace_deadline && now > *grace_deadline)) {
      // Final drain of any processable groups, then exit.
      for (auto& [id, group] : groups_) {
        if (!group.processed) {
          int members = 0;
          for (const auto& payload : group.payloads) {
            members += payload.has_value() ? 1 : 0;
          }
          if (members >= 2) {
            process_group(id, group);
          }
        }
      }
      return;
    }
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

ModelOwnerService::FillCacheEntry ModelOwnerService::deal_fill(
    const Bytes& payload) const {
  ByteReader reader(payload);
  (void)reader.read_u8();
  mpc::TripleKey key;
  key.kind = static_cast<mpc::TripleKind>(reader.read_u8());
  key.dims = read_shape(reader);
  const std::uint64_t start = reader.read_u64();
  const std::uint32_t count = reader.read_u32();
  if (count == 0 || count > config_.max_batch_entries) {
    throw ProtocolError("fill count out of bounds");
  }
  // material_cost rejects malformed keys and saturates instead of
  // wrapping, so a hostile product of dims cannot slip under the
  // bound and send the dealer into a huge allocation.
  if (mpc::material_cost(key) > kMaxFillCost / count) {
    throw ProtocolError("fill request too large");
  }

  // Stateless derived-seed dealing: the response is a pure function
  // of (request payload, service seed), dealt straight into the three
  // parties' response buffers.
  FillCacheEntry entry;
  entry.responses = mpc::deal_fill_responses(key, start, count, config_.seed,
                                             config_.frac_bits);
  return entry;
}

void ModelOwnerService::handle_unary(int party, const Bytes& payload,
                                     std::uint64_t id) {
  ByteReader peek(payload);
  const auto op = static_cast<OwnerOp>(peek.read_u8());
  if (op != OwnerOp::kBatchFill) {
    throw ProtocolError("unexpected op on unary stream");
  }

  const auto slot = static_cast<std::size_t>(party);
  const int bit = 1 << party;
  auto it = fill_cache_.find(payload);
  if (it == fill_cache_.end()) {
    FillCacheEntry entry = deal_fill(payload);
    // Evict BEFORE inserting so the fresh entry is never the victim
    // (FIFO records can be stale after the all-served fast path below).
    while (fill_cache_.size() >= kMaxFillCacheEntries &&
           !fill_cache_fifo_.empty()) {
      fill_cache_.erase(fill_cache_fifo_.front());
      fill_cache_fifo_.pop_front();
    }
    it = fill_cache_.emplace(payload, std::move(entry)).first;
    fill_cache_fifo_.push_back(payload);
  } else if ((it->second.served & bit) != 0) {
    // The party asks again for a range it took (its response moved
    // out): deal it afresh — dealing is stateless, so it is identical.
    it->second.responses[slot] = std::move(deal_fill(payload).responses[slot]);
  }
  endpoint_.send(party, "rsp/" + std::to_string(id),
                 std::move(it->second.responses[slot]));
  it->second.served |= bit;
  ++fills_served_;
  if (it->second.served == 0b111) {
    // All parties took this range; drop it early (the FIFO record goes
    // stale, which the eviction sweep tolerates).
    fill_cache_.erase(it);
  }
}

void ModelOwnerService::handle_collective(int party, const Bytes& payload,
                                          std::uint64_t id) {
  ByteReader peek(payload);
  const auto op = static_cast<OwnerOp>(peek.read_u8());

  if (op == OwnerOp::kStop) {
    stopped_[static_cast<std::size_t>(party)] = true;
    ++stop_count_;
    return;
  }
  if (op != OwnerOp::kSoftmaxForward && op != OwnerOp::kSoftmaxBackward &&
      op != OwnerOp::kReveal) {
    throw ProtocolError("unexpected op on collective stream");
  }

  // Collective ops: stash the payload; a cached processed group serves
  // stragglers immediately.
  auto [it, inserted] = groups_.try_emplace(id);
  Group& group = it->second;
  if (inserted) {
    group.op = op;
    group.created = std::chrono::steady_clock::now();
  }
  group.payloads[static_cast<std::size_t>(party)] = payload;
  if (group.processed) {
    // Late arrival: serve the cached response if any.
    if (group.responses[static_cast<std::size_t>(party)].has_value() &&
        !group.responded[static_cast<std::size_t>(party)]) {
      endpoint_.send(party, "crsp/" + std::to_string(id),
                     *group.responses[static_cast<std::size_t>(party)]);
      group.responded[static_cast<std::size_t>(party)] = true;
    }
  }
}

RingTensor ModelOwnerService::reconstruct_collective(
    const Group& group, std::size_t payload_offset_values) {
  std::array<std::optional<mpc::PartyShare>, kComputingParties> triples;
  for (int party = 0; party < kComputingParties; ++party) {
    const auto& payload = group.payloads[static_cast<std::size_t>(party)];
    if (!payload.has_value()) {
      continue;
    }
    try {
      ByteReader reader(*payload);
      (void)reader.read_u8();
      if (group.op == OwnerOp::kReveal) {
        (void)reader.read_string();
      }
      mpc::PartyShare share = mpc::read_party_share(reader);
      for (std::size_t skip = 0; skip < payload_offset_values; ++skip) {
        share = mpc::read_party_share(reader);
      }
      triples[static_cast<std::size_t>(party)] = std::move(share);
    } catch (const Error&) {
      // Garbage from a Byzantine party: treat as absent.
    }
  }
  mpc::ReconstructReport report;
  RingTensor value =
      mpc::robust_reconstruct(triples, config_.dist_tolerance, &report);
  if (report.anomaly) {
    ++anomalies_;
  }
  return value;
}

void ModelOwnerService::process_group(std::uint64_t id, Group& group) {
  group.processed = true;
  switch (group.op) {
    case OwnerOp::kSoftmaxForward: {
      const RingTensor logits = reconstruct_collective(group, 0);
      const RealTensor probabilities =
          nn::softmax_rows(to_real(logits, config_.frac_bits));
      const auto views = mpc::share_secret(
          to_ring(probabilities, config_.frac_bits), rng_);
      for (int party = 0; party < kComputingParties; ++party) {
        ByteWriter writer;
        mpc::write_party_share(writer, views[static_cast<std::size_t>(party)]);
        group.responses[static_cast<std::size_t>(party)] = writer.take();
      }
      break;
    }
    case OwnerOp::kSoftmaxBackward: {
      const RingTensor p_ring = reconstruct_collective(group, 0);
      const RingTensor g_ring = reconstruct_collective(group, 1);
      const RealTensor grad = nn::softmax_backward_rows(
          to_real(p_ring, config_.frac_bits),
          to_real(g_ring, config_.frac_bits));
      const auto views =
          mpc::share_secret(to_ring(grad, config_.frac_bits), rng_);
      for (int party = 0; party < kComputingParties; ++party) {
        ByteWriter writer;
        mpc::write_party_share(writer, views[static_cast<std::size_t>(party)]);
        group.responses[static_cast<std::size_t>(party)] = writer.take();
      }
      break;
    }
    case OwnerOp::kReveal: {
      // Key: taken from the first present payload (all honest parties
      // send the same key).
      std::string key;
      for (const auto& payload : group.payloads) {
        if (payload.has_value()) {
          try {
            ByteReader reader(*payload);
            (void)reader.read_u8();
            key = reader.read_string();
            break;
          } catch (const Error&) {
          }
        }
      }
      revealed_[key] = reconstruct_collective(group, 0);
      return;  // no responses for reveals
    }
    default:
      return;
  }
  for (int party = 0; party < kComputingParties; ++party) {
    if (group.payloads[static_cast<std::size_t>(party)].has_value() &&
        group.responses[static_cast<std::size_t>(party)].has_value()) {
      endpoint_.send(party, "crsp/" + std::to_string(id),
                     *group.responses[static_cast<std::size_t>(party)]);
      group.responded[static_cast<std::size_t>(party)] = true;
    }
  }
  if (group.op == OwnerOp::kSoftmaxForward) {
    softmax_forwards_answered_.fetch_add(1);
  }
}

}  // namespace trustddl::core
