// Per-party protocol execution context.
//
// TrustDDL's protocols are SPMD: every computing party runs the same
// code over its own share triples.  The context carries the party's
// network endpoint, the security mode, fixed-point precision, the
// Byzantine decision-rule tolerance, a monotonically increasing step
// counter used to derive unique message tags (all parties execute
// protocol invocations in the same order, so counters stay aligned),
// an optional protocol-level adversary, and a detection log.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/kernels.hpp"

namespace trustddl::mpc {

class AdversaryHooks;

/// Adversary model a protocol run defends against (paper Table II
/// "Model" column for TrustDDL rows).
enum class SecurityMode {
  /// Algorithm 2/3 style: no commitments, single exchange round,
  /// median-of-sets reconstruction.  Secure against honest-but-curious
  /// parties only.
  kHonestButCurious,
  /// Algorithm 4/5: commitment phase + redundant six-way
  /// reconstruction + minimum-distance decision rule.  Tolerates one
  /// Byzantine computing party with guaranteed output delivery.
  kMalicious,
  /// SafeML-style (the authors' predecessor framework, ICDMW'23):
  /// replicated shares exchanged like HbC plus a per-opening heartbeat
  /// acknowledgement round for crash detection.  Tolerates one crashed
  /// party (timeout -> reconstruct from the remaining sets) but not
  /// Byzantine behaviour.
  kCrashFault,
};

const char* to_string(SecurityMode mode);

/// Record of one detected misbehaviour, for tests and examples.
struct DetectionEvent {
  enum class Kind {
    kCommitmentViolation,   ///< hash of received shares != committed hash
    kMissingMessage,        ///< commitment/share message timed out
    kDistanceAnomaly,       ///< some reconstruction pair beyond tolerance
    kByzantineSuspected,    ///< decision rule implicates a specific party
    kShareAuthFailure,      ///< peer's share-1 copy contradicts own copy
    kShareCopyConflict,     ///< the two peers' copies of a share-1 differ
  };
  Kind kind;
  std::uint64_t step = 0;
  int suspect = -1;  ///< implicated party, -1 if unknown
  /// Protocol phase where the anomaly surfaced ("commit", "exchange",
  /// "decide", …) and the recovery path taken; string literals owned
  /// by the recording call site.
  const char* phase = "";
  const char* recovery = "";
};

const char* to_string(DetectionEvent::Kind kind);

/// Per-party tally of what the robust protocols observed.
struct DetectionLog {
  /// Observing party (set by core::make_party_context); only used to
  /// attribute events in the global obs::EventLog.
  int party = -1;
  std::vector<DetectionEvent> events;
  /// Opening ROUNDS performed (one commitment/confirmation/exchange
  /// round trip each).  A batched opening scheduled through
  /// mpc::OpenBatch counts once here no matter how many values it
  /// covers — `opens` is the round count the deferred-opening
  /// scheduler exists to minimize.
  std::uint64_t opens = 0;
  /// Individual values reconstructed across all rounds;
  /// values_opened / opens is the achieved batching factor.
  std::uint64_t values_opened = 0;
  std::uint64_t recovered_opens = 0;    ///< openings that excluded data

  /// Appends one event and mirrors it into the global structured
  /// detection event log (obs::EventLog) when telemetry is enabled.
  void record(DetectionEvent::Kind kind, std::uint64_t step,
              int suspect = -1, const char* phase = "",
              const char* recovery = "");

  std::size_t count(DetectionEvent::Kind kind) const {
    std::size_t total = 0;
    for (const auto& event : events) {
      if (event.kind == kind) {
        ++total;
      }
    }
    return total;
  }
};

/// Decision-rule tolerance in ring units: reconstructions within this
/// distance count as (approximately) equal.  Honest disagreement comes
/// only from share-local truncation (±1 ulp per truncation), so a few
/// ulp per truncation suffice; 64 leaves headroom for values that
/// accumulate several truncated products (e.g. gradient sums) while
/// staying far below any real corruption.  The one project-wide
/// default: the party context, EngineConfig, the owner service and the
/// serving client all start from it (EngineConfigTest).
inline constexpr std::uint64_t kDefaultDistTolerance = 64;

struct PartyContext {
  net::Endpoint endpoint;
  int party = 0;  ///< 0..2, the computing-party index
  SecurityMode mode = SecurityMode::kMalicious;
  int frac_bits = fx::kDefaultFracBits;
  /// Decision-rule tolerance (kDefaultDistTolerance); the engine
  /// propagates EngineConfig::dist_tolerance into every party context
  /// (core::make_party_context).
  std::uint64_t dist_tolerance = kDefaultDistTolerance;
  /// Cross-authenticate peers' share-1 components against the local
  /// duplicate copies during robust openings.  This hardening (beyond
  /// the paper; see DESIGN.md §4) costs no communication and defeats
  /// coordinated-offset attacks that can forge an agreeing
  /// reconstruction pair under the bare minimum-distance rule.  The
  /// engine always keeps it on; only the redundancy ablation and the
  /// tests of the bare decision rule turn it off.
  bool share_authentication = true;
  /// Protocol-level misbehaviour; nullptr for an honest party.
  AdversaryHooks* adversary = nullptr;
  /// Compute-kernel configuration for this party's protocol work
  /// (reconstruction candidates, share-auth scans).  Defaults to the
  /// process-global/env settings; core::make_party_context copies
  /// EngineConfig.kernels here.
  ::trustddl::kernels::KernelConfig kernels =
      ::trustddl::kernels::global_config();
  /// Step counter feeding message tags; advances identically at every
  /// party because the protocol program is SPMD.
  std::uint64_t step = 0;
  DetectionLog detections;

  /// Local peer exclusion (paper §III-B: a party that "deliberately
  /// delays or drops all of its messages" is excluded from further
  /// computations).  After `exclusion_threshold` consecutive openings
  /// in which a peer's shares never arrived, later openings stop
  /// waiting for it — otherwise a dead party costs a full receive
  /// timeout per phase per opening for the rest of the protocol.
  int exclusion_threshold = 2;
  std::array<int, 3> consecutive_misses{};
  std::array<bool, 3> excluded{};

  bool peer_excluded(int peer) const {
    return excluded[static_cast<std::size_t>(peer)];
  }
  void note_peer_miss(int peer) {
    auto& misses = consecutive_misses[static_cast<std::size_t>(peer)];
    if (++misses >= exclusion_threshold) {
      excluded[static_cast<std::size_t>(peer)] = true;
    }
  }
  void note_peer_ok(int peer) {
    consecutive_misses[static_cast<std::size_t>(peer)] = 0;
  }

  std::uint64_t next_step() { return step++; }

  std::string tag(std::uint64_t step_id, const char* phase) const {
    return std::to_string(step_id) + "/" + phase;
  }
};

/// The two peers of a computing party (indices in {0,1,2}).
inline std::array<int, 2> peers_of(int party) {
  return {(party + 1) % 3, (party + 2) % 3};
}

}  // namespace trustddl::mpc
