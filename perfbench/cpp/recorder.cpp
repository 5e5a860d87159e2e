#include "recorder.hpp"

#include <chrono>
#include <ctime>
#include <utility>

#include "common/error.hpp"

namespace perfbench {
namespace {

bool starts_with(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& text, const char* suffix) {
  const std::string tail(suffix);
  return text.size() >= tail.size() &&
         text.compare(text.size() - tail.size(), tail.size(), tail) == 0;
}

/// The receive completions boundary mode keeps: manifests, serve and
/// train inputs and engine batches, as received by a computing party.
bool is_boundary(const NetEvent& event) {
  return event.actor < trustddl::core::kComputingParties &&
         (event.cls == TagClass::kServe || event.cls == TagClass::kTrain ||
          event.cls == TagClass::kData);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

const char* tag_class_name(TagClass cls) {
  switch (cls) {
    case TagClass::kOpen: return "open";
    case TagClass::kDealer: return "dealer";
    case TagClass::kOwner: return "owner";
    case TagClass::kSetup: return "setup";
    case TagClass::kServe: return "serve";
    case TagClass::kTrain: return "train";
    case TagClass::kData: return "data";
  }
  return "?";
}

TagClass classify(PartyId from, PartyId to, const std::string& tag) {
  if (from < trustddl::core::kComputingParties &&
      to < trustddl::core::kComputingParties) {
    return TagClass::kOpen;
  }
  if (starts_with(tag, "req/") || starts_with(tag, "rsp/")) {
    return TagClass::kDealer;
  }
  if (starts_with(tag, "col/") || starts_with(tag, "crsp/")) {
    return TagClass::kOwner;
  }
  if (starts_with(tag, "init/")) {
    return TagClass::kSetup;
  }
  if (starts_with(tag, "srv/")) {
    return TagClass::kServe;
  }
  if (starts_with(tag, "trn/")) {
    return TagClass::kTrain;
  }
  return TagClass::kData;
}

RecordingTransport::RecordingTransport(trustddl::net::Transport& inner,
                                       Mode mode)
    : inner_(inner), mode_(mode) {}

void RecordingTransport::push(NetEvent event) {
  const bool boundary = event.op != NetOp::kSend && is_boundary(event);
  if (boundary && boundary_hook_) {
    boundary_hook_(event);
  }
  if (mode_ == Mode::kBoundary && !boundary) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void RecordingTransport::send(trustddl::net::Message message) {
  if (mode_ == Mode::kBoundary) {
    inner_.send(std::move(message));
    return;
  }
  NetEvent event;
  event.op = NetOp::kSend;
  event.cls = classify(message.sender, message.receiver, message.tag);
  event.actor = message.sender;
  event.peer = message.receiver;
  event.bytes = message.wire_size();
  event.tag = message.tag;
  const bool manifest = event.cls == TagClass::kServe &&
                        message.sender == trustddl::core::kModelOwner &&
                        message.receiver == 0 && ends_with(message.tag, "/man");
  ManifestSend decoded;
  if (manifest) {
    decoded.manifest = trustddl::serve::decode_manifest(message.payload);
  }
  event.t0 = now_ns();
  inner_.send(std::move(message));
  event.t1 = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (manifest) {
    decoded.t0 = event.t0;
    manifests_.push_back(std::move(decoded));
  }
  events_.push_back(std::move(event));
}

trustddl::Bytes RecordingTransport::blocking_recv(
    PartyId receiver, PartyId from, const std::string& tag,
    std::chrono::milliseconds timeout) {
  NetEvent event;
  event.cls = classify(from, receiver, tag);
  event.actor = receiver;
  event.peer = from;
  event.tag = tag;
  event.t0 = now_ns();
  try {
    trustddl::Bytes payload =
        inner_.blocking_recv(receiver, from, tag, timeout);
    event.t1 = now_ns();
    event.op = NetOp::kRecv;
    event.bytes = tag.size() + payload.size() + 16;
    push(std::move(event));
    return payload;
  } catch (const trustddl::TimeoutError&) {
    event.t1 = now_ns();
    event.op = NetOp::kTimeout;
    push(std::move(event));
    throw;
  }
}

bool RecordingTransport::probe(PartyId receiver, PartyId from,
                               const std::string& tag, trustddl::Bytes& out) {
  const std::int64_t t0 = mode_ == Mode::kFull ? now_ns() : 0;
  const bool hit = inner_.probe(receiver, from, tag, out);
  if (mode_ == Mode::kBoundary) {
    if (hit && receiver < trustddl::core::kComputingParties) {
      NetEvent event;
      event.op = NetOp::kProbeHit;
      event.cls = classify(from, receiver, tag);
      event.actor = receiver;
      event.peer = from;
      event.tag = tag;
      event.t1 = now_ns();
      push(std::move(event));
    }
    return hit;
  }
  const std::int64_t t1 = now_ns();
  probes_.fetch_add(1);
  if (hit) {
    probe_hits_.fetch_add(1);
  }
  const bool party = receiver < trustddl::core::kComputingParties;
  if (!hit && !party) {
    return false;  // owners and clients poll in tight loops; keep them lock-free
  }
  NetEvent event;
  event.op = NetOp::kProbeHit;
  event.cls = classify(from, receiver, tag);
  event.actor = receiver;
  event.peer = from;
  event.bytes = tag.size() + out.size() + 16;
  event.tag = tag;
  event.t0 = t0;
  event.t1 = t1;
  if (party) {
    std::lock_guard<std::mutex> lock(mu_);
    PollRun& run = polls_[static_cast<std::size_t>(receiver)];
    const bool same = run.open && run.from == from && run.tag == tag;
    if (run.open && !same) {
      close_poll_locked(receiver);
    }
    if (!hit) {
      if (!same) {
        run.open = true;
        run.from = from;
        run.tag = tag;
        run.t0 = t0;
      }
      run.last_t1 = t1;
      return false;
    }
    if (same) {
      event.op = NetOp::kPollWait;
      event.t0 = run.t0;
    }
    run.open = false;
  }
  push(std::move(event));
  return true;
}

void RecordingTransport::close_poll(PartyId party) {
  if (mode_ != Mode::kFull) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  close_poll_locked(party);
}

void RecordingTransport::close_poll_locked(PartyId party) {
  PollRun& run = polls_[static_cast<std::size_t>(party)];
  if (!run.open) {
    return;
  }
  // A run of misses that never hit (the party moved on to another tag
  // or exited) still blocked the party from its first probe to its
  // last.
  NetEvent event;
  event.op = NetOp::kPollWait;
  event.cls = classify(run.from, party, run.tag);
  event.actor = party;
  event.peer = run.from;
  event.tag = run.tag;
  event.t0 = run.t0;
  event.t1 = run.last_t1;
  run.open = false;
  events_.push_back(std::move(event));
}

void SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string name, PartyId actor,
                       std::uint64_t id)
    : log_(log) {
  span_.name = std::move(name);
  span_.actor = actor;
  span_.id = id;
  span_.cpu0 = thread_cpu_ns();
  span_.t0 = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.t1 = now_ns();
  span_.cpu1 = thread_cpu_ns();
  log_.add(std::move(span_));
}

}  // namespace perfbench
