#include "serve/batch_queue.hpp"

#include "common/error.hpp"

namespace trustddl::serve {

bool BatchQueue::push(Entry entry) {
  TRUSTDDL_REQUIRE(entry.rows >= 1, "serve: empty request");
  if (pending_.size() >= capacity_) {
    return false;
  }
  pending_rows_ += entry.rows;
  pending_.push_back(std::move(entry));
  return true;
}

std::vector<BatchQueue::Entry> BatchQueue::expire(Clock::time_point now) {
  std::vector<Entry> expired;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->deadline <= now) {
      pending_rows_ -= it->rows;
      expired.push_back(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

bool BatchQueue::should_flush(Clock::time_point now, bool idle) const {
  if (pending_.empty()) {
    return false;
  }
  return full() || (idle && now - pending_.back().admitted >= kIdlePoll);
}

std::vector<BatchQueue::Entry> BatchQueue::pop_batch() {
  TRUSTDDL_REQUIRE(!pending_.empty(), "serve: pop from empty queue");
  std::vector<Entry> batch;
  std::size_t rows = 0;
  while (!pending_.empty()) {
    const Entry& next = pending_.front();
    if (!batch.empty() && rows + next.rows > max_batch_rows_) {
      break;
    }
    rows += next.rows;
    pending_rows_ -= next.rows;
    batch.push_back(next);
    pending_.pop_front();
    if (rows >= max_batch_rows_) {
      break;
    }
  }
  return batch;
}

}  // namespace trustddl::serve
