#include "fleet/router.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace trustddl::fleet {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

PodRouter::PodRouter(std::vector<std::string> pod_names, RouterOptions options)
    : names_(std::move(pod_names)), options_(options) {
  TRUSTDDL_REQUIRE(!names_.empty(), "PodRouter: need at least one pod");
  health_.resize(names_.size());
}

std::vector<std::size_t> PodRouter::preference_order(
    std::uint64_t client_key) const {
  std::vector<std::pair<std::uint64_t, std::size_t>> scored;
  scored.reserve(names_.size());
  const std::uint64_t key_hash = splitmix64(client_key);
  for (std::size_t p = 0; p < names_.size(); ++p) {
    scored.emplace_back(splitmix64(fnv1a(names_[p]) ^ key_hash), p);
  }
  // Descending score; index breaks the (astronomically unlikely) tie
  // so the order is total and identical on every client.
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) {
                return a.first > b.first;
              }
              return a.second < b.second;
            });
  std::vector<std::size_t> order;
  order.reserve(scored.size());
  for (const auto& [score, pod] : scored) {
    (void)score;
    order.push_back(pod);
  }
  return order;
}

std::size_t PodRouter::home_pod(std::uint64_t client_key) const {
  return preference_order(client_key).front();
}

std::size_t PodRouter::route(std::uint64_t client_key) const {
  const auto order = preference_order(client_key);
  for (const std::size_t pod : order) {
    if (eligible(pod)) {
      return pod;
    }
  }
  return order.front();
}

void PodRouter::mark_down(std::size_t pod) {
  TRUSTDDL_REQUIRE(pod < names_.size(), "mark_down: pod out of range");
  const std::lock_guard<std::mutex> lock(mu_);
  if (!health_[pod].down) {
    health_[pod].down = true;
  }
  // Restart the cooldown on every failure so a flapping pod is not
  // hammered at the cooldown period's edge.
  health_[pod].down_since = std::chrono::steady_clock::now();
}

void PodRouter::mark_up(std::size_t pod) {
  TRUSTDDL_REQUIRE(pod < names_.size(), "mark_up: pod out of range");
  const std::lock_guard<std::mutex> lock(mu_);
  health_[pod].down = false;
}

bool PodRouter::eligible(std::size_t pod) const {
  TRUSTDDL_REQUIRE(pod < names_.size(), "eligible: pod out of range");
  const std::lock_guard<std::mutex> lock(mu_);
  if (!health_[pod].down) {
    return true;
  }
  return std::chrono::steady_clock::now() - health_[pod].down_since >=
         options_.retry_cooldown;
}

std::size_t PodRouter::longest_down(
    const std::vector<std::size_t>& order) const {
  TRUSTDDL_REQUIRE(!order.empty(), "longest_down: empty order");
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t best = order.front();
  for (const std::size_t pod : order) {
    TRUSTDDL_REQUIRE(pod < names_.size(), "longest_down: pod out of range");
    const PodHealth& health = health_[pod];
    const PodHealth& incumbent = health_[best];
    if (!incumbent.down) {
      break;
    }
    if (!health.down || health.down_since < incumbent.down_since) {
      best = pod;
    }
  }
  return best;
}

bool PodRouter::is_down(std::size_t pod) const {
  TRUSTDDL_REQUIRE(pod < names_.size(), "is_down: pod out of range");
  const std::lock_guard<std::mutex> lock(mu_);
  return health_[pod].down;
}

}  // namespace trustddl::fleet
