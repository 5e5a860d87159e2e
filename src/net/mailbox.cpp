#include "net/mailbox.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace trustddl::net {
namespace {

/// Aggregate queued-message depth across every mailbox in the
/// process; the peak is the interesting number (how far receivers
/// fall behind senders).
obs::Gauge& depth_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("net.mailbox.depth");
  return gauge;
}

}  // namespace

void TagMailbox::push(Message message, Clock::time_point deliver_at) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(Entry{std::move(message), deliver_at});
  }
  depth_gauge().add(1);
  cv_.notify_all();
}

std::optional<Bytes> TagMailbox::recv(const std::string& tag,
                                      std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    const auto now = Clock::now();
    // The next wake-up is either the deadline or the earliest matching
    // message still in its emulated-latency window.
    auto next_wake = deadline;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->message.tag != tag) {
        continue;
      }
      if (it->deliver_at <= now) {
        Bytes payload = std::move(it->message.payload);
        pending_.erase(it);
        depth_gauge().sub(1);
        return payload;
      }
      next_wake = std::min(next_wake, it->deliver_at);
    }
    // Scanning before this check re-examines the queue once after a
    // timeout, so a notify racing the deadline is never lost.
    if (now >= deadline || closed_.load()) {
      return std::nullopt;
    }
    cv_.wait_until(lock, next_wake);
  }
}

bool TagMailbox::try_recv(const std::string& tag, Bytes& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = Clock::now();
  const auto it = std::find_if(
      pending_.begin(), pending_.end(), [&](const Entry& entry) {
        return entry.message.tag == tag && entry.deliver_at <= now;
      });
  if (it == pending_.end()) {
    return false;
  }
  out = std::move(it->message.payload);
  pending_.erase(it);
  depth_gauge().sub(1);
  return true;
}

void TagMailbox::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_.store(true);
  }
  cv_.notify_all();
}

bool TagMailbox::closed() const { return closed_.load(); }

}  // namespace trustddl::net
