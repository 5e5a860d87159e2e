#include "mpc/open.hpp"

#include <array>
#include <functional>
#include <iterator>

#include "common/logging.hpp"
#include "common/sha256.hpp"
#include "mpc/adversary.hpp"
#include "mpc/robust_reconstruct.hpp"
#include "mpc/share_serde.hpp"
#include "numeric/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace trustddl::mpc {
namespace {

constexpr const char* kLog = "mpc.open";

/// How the adversary hooks act on an outgoing message: by dropping it,
/// or by dropping it or replacing the shares it carries.
enum class Hook { kDrop, kShares };

/// The malicious opening's commitment: SHA-256 over (step ‖ sender ‖
/// payload), the payload being the share triples exactly as sent.
Bytes commitment_digest(std::uint64_t step, int sender, const Bytes& payload) {
  Sha256 hasher;
  ByteWriter header;
  header.write_u64(step);
  header.write_u8(static_cast<std::uint8_t>(sender));
  hasher.update(header.bytes());
  hasher.update(payload);
  const Sha256Digest digest = hasher.finish();
  return Bytes(digest.begin(), digest.end());
}

/// One opening round over `values` (DESIGN.md §4 "Opening round").
/// Each security mode runs a fixed subset of the phases
///
///   commit? → confirm? → exchange(pairs | triples) → decide
///
/// HbC exchanges pairs and takes the median of the three sets;
/// crash-fault adds a heartbeat confirmation first.  Malicious mode
/// commits, confirms, exchanges triples and applies the decision rule.
/// Every phase is written once: `send` applies the adversary hooks,
/// `gather` handles exclusion, timeouts and missing-message records,
/// `exchange` decodes and verifies shares.
class Round {
 public:
  Round(PartyContext& ctx, const std::vector<PartyShare>& values,
        const std::vector<std::size_t>& group_sizes)
      : ctx_(ctx),
        values_(values),
        groups_(group_sizes),
        step_(ctx.next_step()),
        peers_(peers_of(ctx.party)),
        malicious_(ctx.mode == SecurityMode::kMalicious),
        adversary_(malicious_ ? ctx.adversary : nullptr) {
    if (adversary_ != nullptr) {
      // Case 3: a corrupted copy feeds both the commitment and the
      // exchange.
      corrupted_ = values;
      adversary_->before_commit(step_, corrupted_);
      outgoing_ = &corrupted_;
    }
  }

  std::vector<RingTensor> run() {
    const bool pairs = !malicious_;
    // Encoded once for both peers; the malicious opening commits to
    // exactly these bytes.
    Bytes wire = write_share_vector(*outgoing_, pairs);
    if (malicious_) {
      commit(commitment_digest(step_, ctx_.party, wire));
    }
    if (ctx_.mode != SecurityMode::kHonestButCurious) {
      confirm();
    }
    {
      obs::ScopedSpan span("open.exchange", ctx_.party, step_);
      exchange(pairs, std::move(wire));
    }
    count_opening();
    note_liveness();
    if (!malicious_) {
      obs::ScopedSpan span("open.reconstruct", ctx_.party, step_);
      return medians();
    }
    return decide();
  }

 private:
  void record(DetectionEvent::Kind kind, int suspect, const char* phase,
              const char* recovery) {
    ctx_.detections.record(kind, step_, suspect, phase, recovery);
  }

  void count_opening() {
    ctx_.detections.opens += 1;
    ctx_.detections.values_opened += values_.size();
  }

  /// Sends `payload` to peers_[i].  A hooked message (malicious mode
  /// only) may be dropped, and a share message's shares replaced
  /// (Case 1/2: shares that differ from the committed ones).
  void send(std::size_t i, const char* tag, Bytes payload, Hook hook,
            bool pairs = false) {
    const int peer = peers_[i];
    if (adversary_ != nullptr) {
      if (adversary_->drop_messages_to(step_, peer)) {
        return;
      }
      if (hook == Hook::kShares) {
        if (auto replacement =
                adversary_->replace_shares_for(step_, peer, *outgoing_)) {
          payload = write_share_vector(*replacement, pairs);
        }
      }
    }
    ctx_.endpoint.send(peer, ctx_.tag(step_, tag), std::move(payload));
  }

  /// Sends `payload` to every peer: a copy to each but the last, which
  /// takes the payload itself.
  void broadcast(const char* tag, Bytes payload, Hook hook,
                 bool pairs = false) {
    for (std::size_t i = 0; i + 1 < peers_.size(); ++i) {
      send(i, tag, payload, hook, pairs);
    }
    send(peers_.size() - 1, tag, std::move(payload), hook, pairs);
  }

  /// Receives one message per peer on `tag`, handing peers_[i]'s to
  /// `on_message(i, payload)`.  An excluded peer is not waited for.  A
  /// missing message is recorded under `phase` when `recovery` is set
  /// (an excluded peer's only with `record_excluded`); in HbC mode a
  /// timeout aborts the opening.  Returns which peers timed out.
  std::array<bool, 2> gather(
      const char* tag, const char* phase, const char* recovery,
      const std::function<void(std::size_t, Bytes)>& on_message,
      bool record_excluded = true) {
    std::array<bool, 2> timed_out{};
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      const int peer = peers_[i];
      if (ctx_.peer_excluded(peer)) {
        if (recovery != nullptr && record_excluded) {
          record(DetectionEvent::Kind::kMissingMessage, peer, phase, recovery);
        }
        continue;
      }
      try {
        on_message(i, ctx_.endpoint.recv(peer, ctx_.tag(step_, tag)));
      } catch (const TimeoutError&) {
        if (ctx_.mode == SecurityMode::kHonestButCurious) {
          throw;
        }
        timed_out[i] = true;
        if (recovery != nullptr) {
          record(DetectionEvent::Kind::kMissingMessage, peer, phase, recovery);
          TRUSTDDL_LOG_WARN(kLog) << "party " << ctx_.party << ": no " << phase
                                  << " message from party " << peer
                                  << " at step " << step_;
        }
      }
    }
    return timed_out;
  }

  /// Commitment phase (Algorithm 4 lines 3-7).
  void commit(const Bytes& own) {
    obs::ScopedSpan span("open.commit", ctx_.party, step_);
    broadcast("c", own, Hook::kDrop);
    gather("c", "commit", "discard_shares",
           [&](std::size_t i, Bytes payload) {
             if (payload.size() == own.size()) {
               commitments_[static_cast<std::size_t>(peers_[i])] =
                   std::move(payload);
             }
           });
  }

  /// Receipt confirmation (Algorithm 4 line 8), or crash-fault mode's
  /// heartbeat (SafeML's crash-detection handshake).  A missing
  /// confirmation cannot block the opening: inconsistent shares still
  /// fail the commitment check.
  void confirm() {
    const bool heartbeat = !malicious_;
    obs::ScopedSpan span(heartbeat ? "open.heartbeat" : "open.confirm",
                         ctx_.party, step_);
    const char* tag = heartbeat ? "hb" : "a";
    broadcast(tag, Bytes{1}, Hook::kDrop);
    gather(tag, heartbeat ? "heartbeat" : "confirm",
           heartbeat ? "reconstruct_remaining" : nullptr,
           [](std::size_t, Bytes) {}, /*record_excluded=*/false);
  }

  /// A Byzantine party can send structurally bogus data (wrong count or
  /// shapes); that must invalidate its contribution, not crash us.
  bool compatible(const std::vector<PartyShare>& shares, bool pairs) const {
    if (shares.size() != values_.size()) {
      return false;
    }
    for (std::size_t v = 0; v < shares.size(); ++v) {
      if (shares[v].primary.shape() != values_[v].primary.shape() ||
          shares[v].second.shape() != values_[v].second.shape() ||
          (!pairs &&
           shares[v].duplicate.shape() != values_[v].duplicate.shape())) {
        return false;
      }
    }
    return true;
  }

  /// Whether `payload`, received from `peer`, matches its commitment:
  /// the digest over the raw payload.
  bool committed(int peer, const Bytes& payload) const {
    const Bytes& commitment = commitments_[static_cast<std::size_t>(peer)];
    return !commitment.empty() &&
           commitment == commitment_digest(step_, peer, payload);
  }

  /// Share exchange (Algorithm 4 lines 9-14): send `wire`, then decode
  /// and verify each peer's shares.  A violator's shares are discarded
  /// and a silent peer's sets are reconstructed from the remaining
  /// shares.
  void exchange(bool pairs, Bytes wire) {
    broadcast("s", std::move(wire), Hook::kShares, pairs);
    usable_[static_cast<std::size_t>(ctx_.party)] = &values_;
    const auto timed_out = gather(
        "s", "exchange", "reconstruct_remaining",
        [&](std::size_t i, Bytes payload) {
          const int peer = peers_[i];
          const auto index = static_cast<std::size_t>(peer);
          try {
            received_[index] = read_share_vector(payload, pairs);
            if (!compatible(received_[index], pairs)) {
              throw SerializationError("malformed shares from party " +
                                       std::to_string(peer));
            }
          } catch (const SerializationError&) {
            if (!malicious_) {
              throw;
            }
            record(DetectionEvent::Kind::kCommitmentViolation, peer,
                   "exchange", "discard_shares");
            return;
          }
          delivered_[index] = true;
          if (!malicious_ || committed(peer, payload)) {
            usable_[index] = &received_[index];
            return;
          }
          record(DetectionEvent::Kind::kCommitmentViolation, peer, "exchange",
                 "discard_shares");
          TRUSTDDL_LOG_WARN(kLog) << "party " << ctx_.party
                                  << ": commitment check failed for party "
                                  << peer << " at step " << step_;
        });
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      timed_out_[static_cast<std::size_t>(peers_[i])] = timed_out[i];
    }
  }

  /// Liveness is noted once per opening, from its share exchange (see
  /// PartyContext::exclusion_threshold).
  void note_liveness() {
    for (const int peer : peers_) {
      if (delivered_[static_cast<std::size_t>(peer)]) {
        ctx_.note_peer_ok(peer);
      } else if (timed_out_[static_cast<std::size_t>(peer)]) {
        ctx_.note_peer_miss(peer);
      }
    }
  }

  /// Each value's share triples by party, from the usable shares.
  std::vector<ValueShares> shares_by_value() const {
    std::vector<ValueShares> shares(values_.size());
    for (std::size_t v = 0; v < values_.size(); ++v) {
      for (std::size_t p = 0; p < kNumParties; ++p) {
        shares[v][p] = usable_[p] != nullptr ? &(*usable_[p])[v] : nullptr;
      }
    }
    return shares;
  }

  /// A pair exchange yields the set reconstructions s^j only.  With no
  /// hat to pair them with, the decision rule falls back to each
  /// value's elementwise median of its sets: the HbC reconstruction,
  /// which also absorbs the rare ±big glitches of share-local
  /// truncation.
  std::vector<RingTensor> medians() {
    std::vector<Candidates> sets = build_candidates(
        shares_by_value(), {}, ctx_.kernels, /*hats=*/false);
    std::vector<RingTensor> opened;
    decide_group(sets, 0, sets.size(), ctx_.dist_tolerance, ctx_.party,
                 opened);
    return opened;
  }

  /// Share-copy authentication (hardening beyond the paper; DESIGN.md
  /// §4) and the decision rule, per group — a group is one protocol
  /// call's open set, so a batched round adopts exactly the
  /// reconstructions its calls would have chosen unbatched.
  std::vector<RingTensor> decide() {
    obs::ScopedSpan span("open.decide", ctx_.party, step_);
    std::vector<ValueShares> shares = shares_by_value();
    // Per value, whether the two copies of `set`'s share-1 differ; the
    // tensor comparisons run in parallel over the values.
    const auto differing = [&](int set) {
      std::vector<std::uint8_t> differ(values_.size(), 0);
      kernels::parallel_for(ctx_.kernels, values_.size(), 1,
                            [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t v = lo; v < hi; ++v) {
                                differ[v] = copies_differ(shares[v], set);
                              }
                            });
      return differ;
    };
    const auto usable = [&](int party) {
      return usable_[static_cast<std::size_t>(party)] != nullptr;
    };
    std::vector<std::array<bool, kNumSets>> conflicted(values_.size());
    if (ctx_.share_authentication) {
      // The observer holds one copy of two sets' share-1: its duplicate
      // is set i+1's, whose primary copy peer i+1 holds, and its primary
      // is set i's, whose duplicate copy peer i+2 holds.  A peer that
      // contradicts the observer's own copy is proven to have tampered
      // and is discarded whole, like a commitment violation.
      const std::array<int, 2> own_sets = {set_duplicate(ctx_.party),
                                           set_primary(ctx_.party)};
      std::array<std::vector<std::uint8_t>, 2> mismatch;
      for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (usable(peers_[i])) {
          mismatch[i] = differing(own_sets[i]);
        }
      }
      for (std::size_t v = 0; v < values_.size(); ++v) {
        for (std::size_t i = 0; i < peers_.size(); ++i) {
          if (!mismatch[i].empty() && mismatch[i][v] && usable(peers_[i])) {
            usable_[static_cast<std::size_t>(peers_[i])] = nullptr;
            record(DetectionEvent::Kind::kShareAuthFailure, peers_[i],
                   "exchange", "discard_shares");
            TRUSTDDL_LOG_WARN(kLog)
                << "party " << ctx_.party << ": share-copy authentication "
                << "failed for party " << peers_[i] << " at step " << step_
                << " — discarding its shares";
          }
        }
      }
      // Set i+2's two copies are both the peers'.  A mismatch between
      // two still-trusted peers proves one of them lied without saying
      // which; both reconstructions of that set are dropped.
      const int third = set_second(ctx_.party);
      if (usable(peers_[0]) && usable(peers_[1])) {
        const auto conflict = differing(third);
        for (std::size_t v = 0; v < values_.size(); ++v) {
          if (conflict[v]) {
            conflicted[v][static_cast<std::size_t>(third)] = true;
            record(DetectionEvent::Kind::kShareCopyConflict, -1, "decide",
                   "drop_set");
            TRUSTDDL_LOG_WARN(kLog)
                << "party " << ctx_.party << ": conflicting share-1 copies "
                << "for set " << third << " at step " << step_;
          }
        }
      }
      shares = shares_by_value();
    }

    std::vector<Candidates> candidates =
        build_candidates(shares, conflicted, ctx_.kernels);
    std::vector<RingTensor> opened;
    opened.reserve(values_.size());
    std::size_t lo = 0;
    for (const std::size_t group_size : groups_) {
      const Decision decision =
          decide_group(candidates, lo, lo + group_size, ctx_.dist_tolerance,
                       ctx_.party, opened);
      lo += group_size;
      if (decision.anomaly) {
        record(DetectionEvent::Kind::kDistanceAnomaly, -1, "decide",
               "min_distance");
        ctx_.detections.recovered_opens += 1;
        if (decision.suspect >= 0) {
          record(DetectionEvent::Kind::kByzantineSuspected, decision.suspect,
                 "decide", "redundant_reconstruction");
        }
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << ctx_.party << ": reconstruction anomaly at step "
            << step_ << " recovered; suspect " << decision.suspect;
      }
      if (decision.median) {
        ctx_.detections.recovered_opens += 1;
        TRUSTDDL_LOG_WARN(kLog) << "party " << ctx_.party
                                << ": no agreeing pair at step " << step_
                                << " — fell back to the elementwise median";
      }
    }
    return opened;
  }

  PartyContext& ctx_;
  const std::vector<PartyShare>& values_;
  const std::vector<std::size_t>& groups_;
  const std::uint64_t step_;
  const std::array<int, 2> peers_;
  const bool malicious_;
  /// The hooks act in malicious mode only.
  AdversaryHooks* const adversary_;
  std::vector<PartyShare> corrupted_;
  /// What this party sends: its shares, or the adversary's corruption.
  const std::vector<PartyShare>* outgoing_ = &values_;
  /// Per party: its commitment payload (empty if none arrived), the
  /// shares its exchange decoded, those shares while usable (own shares
  /// always), and whether that exchange delivered or timed out.
  std::array<Bytes, kNumParties> commitments_;
  std::array<std::vector<PartyShare>, kNumParties> received_;
  std::array<const std::vector<PartyShare>*, kNumParties> usable_{};
  std::array<bool, kNumParties> delivered_{};
  std::array<bool, kNumParties> timed_out_{};
};

}  // namespace

std::vector<RingTensor> open_values_grouped(
    PartyContext& ctx, const std::vector<PartyShare>& values,
    const std::vector<std::size_t>& group_sizes) {
  TRUSTDDL_REQUIRE(!values.empty(), "open_values: nothing to open");
  std::size_t grouped = 0;
  for (const std::size_t group_size : group_sizes) {
    grouped += group_size;
  }
  TRUSTDDL_REQUIRE(grouped == values.size(),
                   "open_values_grouped: group sizes must sum to the value "
                   "count");
  return Round(ctx, values, group_sizes).run();
}

std::vector<RingTensor> open_values(PartyContext& ctx,
                                    const std::vector<PartyShare>& values) {
  return open_values_grouped(ctx, values, {values.size()});
}

RingTensor open_value(PartyContext& ctx, const PartyShare& value) {
  return open_values(ctx, {value})[0];
}

OpenBatch::~OpenBatch() {
  if (!pending_.empty()) {
    // Cannot flush from a destructor (it communicates and may throw);
    // unflushed work is a bug unless we are unwinding from an error.
    TRUSTDDL_LOG_WARN(kLog)
        << "party " << ctx_.party << ": OpenBatch destroyed with "
        << pending_.size() << " unflushed opening(s)";
  }
}

void OpenBatch::enqueue(std::vector<PartyShare> values, Continuation on_open) {
  TRUSTDDL_REQUIRE(!values.empty(), "OpenBatch::enqueue: nothing to open");
  PendingOpen entry;
  entry.count = values.size();
  entry.on_open = std::move(on_open);
  for (auto& value : values) {
    queue_.push_back(std::move(value));
  }
  pending_.push_back(std::move(entry));
  ++enqueued_;
}

DeferredTensor OpenBatch::enqueue_value(PartyShare value) {
  DeferredTensor result;
  std::vector<PartyShare> values;
  values.push_back(std::move(value));
  enqueue(std::move(values), [result](std::vector<RingTensor> opened) mutable {
    result.set(std::move(opened[0]));
  });
  return result;
}

void OpenBatch::flush() {
  if (pending_.empty()) {
    return;
  }
  const std::vector<PartyShare> values = std::move(queue_);
  const std::vector<PendingOpen> dispatch = std::move(pending_);
  queue_.clear();
  pending_.clear();
  ++flushes_;

  // ONE robust opening round covers every pending value: a single
  // commitment, confirmation and exchange regardless of how many
  // protocol calls contributed.  The decision rule still runs per
  // enqueued group so every call adopts the reconstruction pair it
  // would have chosen unbatched.
  std::vector<std::size_t> group_sizes;
  group_sizes.reserve(dispatch.size());
  for (const PendingOpen& entry : dispatch) {
    group_sizes.push_back(entry.count);
  }
  if (obs::metrics_enabled()) {
    obs::count("open.batch.flushes");
    obs::count("open.batch.values", values.size());
    obs::count("open.batch.groups", group_sizes.size());
  }
  obs::trace_instant("open.flush", ctx_.party, ctx_.step,
                     "\"values\": " + std::to_string(values.size()) +
                         ", \"groups\": " +
                         std::to_string(group_sizes.size()));
  std::vector<RingTensor> opened =
      open_values_grouped(ctx_, values, group_sizes);

  // Dispatch reconstructed slices back to the continuations in enqueue
  // order.  Continuations may enqueue follow-up openings; those landed
  // in the (now fresh) queue and wait for the next flush.
  std::size_t offset = 0;
  for (const PendingOpen& entry : dispatch) {
    std::vector<RingTensor> slice(
        std::make_move_iterator(opened.begin() +
                                static_cast<std::ptrdiff_t>(offset)),
        std::make_move_iterator(opened.begin() +
                                static_cast<std::ptrdiff_t>(offset +
                                                            entry.count)));
    offset += entry.count;
    entry.on_open(std::move(slice));
  }
}

void OpenBatch::flush_all() {
  while (!pending_.empty()) {
    flush();
  }
}

}  // namespace trustddl::mpc
