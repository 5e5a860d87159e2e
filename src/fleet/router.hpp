// Stateless client-side pod router with health-aware failover.
//
// Routing uses rendezvous (highest-random-weight) hashing: for a
// client key k, every pod p gets the score
//
//   score(p, k) = splitmix64(fnv1a(pod_name(p)) ^ splitmix64(k))
//
// and the pod order sorted by descending score is the client's
// *preference order*.  The first pod is its home; the rest form the
// failover ring.  Rendezvous hashing gives the two properties the
// fleet needs with no coordination: every client computes the same
// assignment from the topology file alone, and removing a pod only
// moves the clients that were homed on it (each falls through to its
// own next preference, spreading the orphaned load across the
// survivors instead of dogpiling one neighbour).
//
// Health is purely local observation: mark_down(pod) after a connect
// failure, probe failure, or response timeout; a down pod is skipped
// by route() until `retry_cooldown` elapses, after which it becomes
// eligible again (one client re-trying it acts as the probe).  All
// methods are thread-safe — one router is shared by a client's
// submitter threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace trustddl::fleet {

struct RouterOptions {
  /// How long a pod marked down is skipped before a client is allowed
  /// to try it again.
  std::chrono::milliseconds retry_cooldown{2000};
};

class PodRouter {
 public:
  PodRouter(std::vector<std::string> pod_names, RouterOptions options = {});

  std::size_t num_pods() const { return names_.size(); }
  const std::string& pod_name(std::size_t pod) const { return names_[pod]; }

  /// Pods sorted by descending rendezvous score for `client_key`
  /// (deterministic; ignores health).
  std::vector<std::size_t> preference_order(std::uint64_t client_key) const;

  /// The client's home pod: preference_order(...)[0].
  std::size_t home_pod(std::uint64_t client_key) const;

  /// First pod in the client's preference order that is currently
  /// considered up (or down long enough that the cooldown expired).
  /// Falls back to the home pod when every pod looks down, so a
  /// fully-degraded view still yields a deterministic probe target.
  std::size_t route(std::uint64_t client_key) const;

  /// Health observations from this client's own traffic.
  void mark_down(std::size_t pod);
  void mark_up(std::size_t pod);

  /// True when the pod is up, or down but past the retry cooldown.
  bool eligible(std::size_t pod) const;

  /// The pod of `order` that has been down the longest (an up pod
  /// first; the earlier of `order` on a tie).  When every pod is inside
  /// its cooldown, probing this one cycles through the pods — each
  /// failed probe restarts that pod's cooldown — instead of retrying
  /// one dead pod while a slow but live one waits out its cooldown.
  std::size_t longest_down(const std::vector<std::size_t>& order) const;
  bool is_down(std::size_t pod) const;

 private:
  std::vector<std::string> names_;
  RouterOptions options_;
  mutable std::mutex mu_;
  struct PodHealth {
    bool down = false;
    std::chrono::steady_clock::time_point down_since{};
  };
  std::vector<PodHealth> health_;
};

/// splitmix64 finalizer — the hash behind rendezvous scores.
std::uint64_t splitmix64(std::uint64_t x);

/// FNV-1a over a string, the pod-name half of the rendezvous score.
std::uint64_t fnv1a(const std::string& text);

}  // namespace trustddl::fleet
