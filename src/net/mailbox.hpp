// Tag-matched mailbox shared by both transports.
//
// One mailbox holds the messages one receiver has pending from one
// sender.  Each message carries an earliest-delivery time: the
// in-memory network stamps `now + emulated latency + fault delay` so
// the *sender* never blocks (emulated latency overlaps across links,
// like real ones), while the TCP reader threads stamp `now` (the wire
// already provided the latency).  recv() only matches messages whose
// delivery time has passed and sleeps until the earliest candidate or
// the deadline, whichever comes first.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

#include "net/message.hpp"

namespace trustddl::net {

class TagMailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Enqueue a message that becomes visible to recv/try_recv at
  /// `deliver_at`.
  void push(Message message, Clock::time_point deliver_at);

  /// Wait up to `timeout` for a deliverable message with `tag`;
  /// returns nullopt on expiry (callers map this to TimeoutError).
  std::optional<Bytes> recv(const std::string& tag,
                            std::chrono::milliseconds timeout);

  /// Non-blocking: pop a deliverable message with `tag` if present.
  bool try_recv(const std::string& tag, Bytes& out);

  /// No message will arrive any more: wakes every waiting recv, and
  /// from now on recv returns nullopt at once when nothing deliverable
  /// matches.  Messages already queued stay receivable.
  void close();
  bool closed() const;

 private:
  struct Entry {
    Message message;
    Clock::time_point deliver_at;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> pending_;
  /// Set under mu_ so a waiter cannot miss it; read without it by
  /// polls.
  std::atomic<bool> closed_{false};
};

}  // namespace trustddl::net
