#include "report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "core/roles.hpp"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Per-layer metrics every traced run prints (trace_overhead is added
/// by run.py, which owns both the traced and the untraced run).
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
constexpr LayerMetricDef kLayerMetrics[] = {
    {"net.msgs_per_op", "count"},
    {"net.send_ms_per_op", "ms"},
    {"net.polls_per_op", "count"},
    {"net.poll_hit_ratio", "ratio"},
    {"net.recv_timeouts", "count"},
    {"mpc.rounds_per_op", "count"},
    {"mpc.values_per_round", "count"},
    {"mpc.open_mb_per_op", "MB"},
    {"mpc.open_wait_ms_per_op", "ms"},
    {"mpc.detections", "count"},
    {"mpc.recovered_opens", "count"},
    {"core.dealer_wait_ms_per_op", "ms"},
    {"core.dealer_requests_per_op", "count"},
    {"core.dealer_mb_per_op", "MB"},
    {"core.softmax_wait_ms_per_op", "ms"},
    {"core.party_busy_ms_per_op", "ms"},
    {"core.party_cpu_ms_per_op", "ms"},
    {"core.rendezvous_ms", "ms"},
    {"core.share_params_ms", "ms"},
    {"core.warmup_ms", "ms"},
    {"serve.rows_per_batch.poisson", "count"},
    {"serve.rows_per_batch.burst", "count"},
    {"serve.submit_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.party_queue_ms", "ms"},
    {"serve.batch_ms", "ms"},
    {"serve.finish_ms", "ms"},
    {"serve.gen_lag_ms", "ms"},
    {"train.round_ms", "ms"},
    {"train.submit_ms", "ms"},
    {"train.dropped_slots", "count"},
    {"nn.plain_samples_per_s", "1/s"},
};

/// Length of [a0, a1) ∩ [b0, b1).
std::int64_t overlap(std::int64_t a0, std::int64_t a1, std::int64_t b0,
                     std::int64_t b1) {
  return std::max<std::int64_t>(0, std::min(a1, b1) - std::max(a0, b0));
}

bool is_wait(NetOp op) { return op != NetOp::kSend; }

void set(Result& result, const char* name, double value) {
  for (const auto& def : kLayerMetrics) {
    if (std::string(def.name) == name) {
      result.per_layer[name] = Metric{value, def.unit};
      return;
    }
  }
  result.fail(std::string("unknown per-layer metric ") + name);
}

void print_metrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (double value : values) {
    total += value;
  }
  return total / static_cast<double>(values.size());
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void PartyClocks::enter(int party) {
  const auto slot = static_cast<std::size_t>(party);
  pthread_getcpuclockid(pthread_self(), &clock[slot]);
  body_t0[slot] = now_ns();
}

void PartyClocks::leave(int party) {
  const auto slot = static_cast<std::size_t>(party);
  if (!end_sampled.load()) {
    cpu_end[slot] = thread_cpu_ns();
  }
  body_t1[slot] = now_ns();
}

void PartyClocks::sample_start() {
  for (std::size_t p = 0; p < 3; ++p) {
    cpu_start[p] = clock_ns(clock[p]);
  }
}

void PartyClocks::sample_end() {
  for (std::size_t p = 0; p < 3; ++p) {
    cpu_end[p] = clock_ns(clock[p]);
  }
  end_sampled.store(true);
}

void run_actors(const std::vector<std::function<void()>>& bodies,
                std::size_t tolerated) {
  std::vector<std::exception_ptr> errors(bodies.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      threads.emplace_back([&, i] {
        try {
          bodies[i]();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i] && i != tolerated) {
      std::rethrow_exception(errors[i]);
    }
  }
}

Boundaries::Boundaries(RecordingTransport& transport, PartyClocks& clocks,
                       TagClass cls, std::string suffix,
                       std::string window_tag)
    : transport_(transport), clocks_(clocks), cls_(cls),
      suffix_(std::move(suffix)), window_tag_(std::move(window_tag)) {
  transport_.set_boundary_hook(
      [this](const NetEvent& event) { on_receipt(event); });
}

void Boundaries::on_receipt(const NetEvent& event) {
  if (event.cls != cls_ || event.tag.size() < suffix_.size() ||
      event.tag.compare(event.tag.size() - suffix_.size(), suffix_.size(),
                        suffix_) != 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& [count, last] = receipts_[event.tag];
  last = std::max(last, event.t1);
  if (++count == trustddl::core::kComputingParties &&
      event.tag == window_tag_) {
    clocks_.sample_start();
    cpu_t0_ = process_cpu_seconds();
    traffic_t0_ = transport_.traffic();
  }
}

std::int64_t Boundaries::at(const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = receipts_.find(tag);
  if (it == receipts_.end() ||
      it->second.first != trustddl::core::kComputingParties) {
    throw std::runtime_error("boundary " + tag +
                             " was not received by every party");
  }
  return it->second.second;
}

void account_layers(const LayerInputs& in, Result& result) {
  const auto& events = in.recorder->events();
  const auto n = in.traffic->links.size();

  // Accounting check 1: the recorder's sends, grouped per link and per
  // tag class, reproduce the transport's own meters exactly.
  std::vector<std::vector<trustddl::net::LinkMetrics>> links(
      n, std::vector<trustddl::net::LinkMetrics>(n));
  std::array<trustddl::net::LinkMetrics, kTagClasses> per_class{};
  for (const auto& event : events) {
    if (event.op != NetOp::kSend) {
      continue;
    }
    auto& link = links[static_cast<std::size_t>(event.actor)]
                      [static_cast<std::size_t>(event.peer)];
    link.messages += 1;
    link.bytes += event.bytes;
    auto& cls = per_class[static_cast<std::size_t>(event.cls)];
    cls.messages += 1;
    cls.bytes += event.bytes;
  }
  std::uint64_t class_messages = 0;
  std::uint64_t class_bytes = 0;
  for (std::size_t c = 0; c < kTagClasses; ++c) {
    class_messages += per_class[c].messages;
    class_bytes += per_class[c].bytes;
    std::fprintf(stderr, "perfbench: class %-6s %10" PRIu64 " msgs %14" PRIu64
                 " bytes\n",
                 tag_class_name(static_cast<TagClass>(c)),
                 per_class[c].messages, per_class[c].bytes);
  }
  if (class_messages != in.traffic->total_messages ||
      class_bytes != in.traffic->total_bytes) {
    result.fail("accounting: per-class sends (" +
                std::to_string(class_messages) + " msgs, " +
                std::to_string(class_bytes) +
                " bytes) != traffic() totals (" +
                std::to_string(in.traffic->total_messages) + " msgs, " +
                std::to_string(in.traffic->total_bytes) + " bytes)");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (links[i][j].messages != in.traffic->links[i][j].messages ||
          links[i][j].bytes != in.traffic->links[i][j].bytes) {
        result.fail("accounting: link " + std::to_string(i) + "->" +
                    std::to_string(j) + " differs from traffic()");
      }
    }
  }

  // Window-restricted sends.
  double msgs = 0.0;
  double send_ms = 0.0;
  double open_bytes = 0.0;
  double dealer_requests = 0.0;
  double dealer_bytes = 0.0;
  std::uint64_t timeouts = 0;
  std::int64_t params_done = in.rendezvous_t1;
  for (const auto& event : events) {
    if (event.op == NetOp::kTimeout) {
      ++timeouts;
    }
    if (event.cls == TagClass::kSetup && event.op == NetOp::kRecv &&
        event.actor < trustddl::core::kComputingParties) {
      params_done = std::max(params_done, event.t1);
    }
    if (event.op != NetOp::kSend || event.t0 < in.t0 || event.t0 >= in.t1) {
      continue;
    }
    msgs += 1.0;
    send_ms += ms(event.t1 - event.t0);
    const auto bytes = static_cast<double>(event.bytes);
    if (event.cls == TagClass::kOpen) {
      open_bytes += bytes;
    } else if (event.cls == TagClass::kDealer) {
      if (event.tag.rfind("req/", 0) == 0) {
        dealer_requests += 1.0;
      } else {
        dealer_bytes += bytes;
      }
    }
  }

  // Accounting check 2: per party, the receive waits are disjoint and
  // inside the body span, so wall = busy + waits; the sum of the gaps
  // between waits must reproduce busy within kTolerance.
  constexpr double kToleranceMs = 0.1;
  constexpr double kToleranceShare = 0.001;
  double open_wait = 0.0;
  double dealer_wait = 0.0;
  double owner_wait = 0.0;
  double busy = 0.0;
  double party_cpu = 0.0;
  for (int p = 0; p < trustddl::core::kComputingParties; ++p) {
    const auto slot = static_cast<std::size_t>(p);
    const std::int64_t b0 = in.parties->body_t0[slot];
    const std::int64_t b1 = in.parties->body_t1[slot];
    std::vector<const NetEvent*> waits;
    for (const auto& event : events) {
      if (event.actor == p && is_wait(event.op)) {
        waits.push_back(&event);
      }
    }
    std::sort(waits.begin(), waits.end(),
              [](const NetEvent* a, const NetEvent* b) { return a->t0 < b->t0; });
    std::int64_t cursor = b0;
    std::int64_t gaps = 0;
    std::int64_t waited = 0;
    std::int64_t window_waited = 0;
    bool disjoint = true;
    for (const NetEvent* wait : waits) {
      if (wait->t0 < cursor || wait->t1 > b1) {
        disjoint = false;
      }
      gaps += std::max<std::int64_t>(0, wait->t0 - cursor);
      cursor = std::max(cursor, wait->t1);
      waited += wait->t1 - wait->t0;
      const std::int64_t inside = overlap(wait->t0, wait->t1, in.t0, in.t1);
      window_waited += inside;
      if (wait->cls == TagClass::kOpen) {
        open_wait += ms(inside);
      } else if (wait->cls == TagClass::kDealer) {
        dealer_wait += ms(inside);
      } else if (wait->cls == TagClass::kOwner) {
        owner_wait += ms(inside);
      }
    }
    gaps += std::max<std::int64_t>(0, b1 - cursor);
    const double wall = ms(b1 - b0);
    const double residual = std::fabs(wall - ms(gaps) - ms(waited));
    std::fprintf(stderr,
                 "perfbench: party %d wall %.1f ms = busy %.1f + waits %.1f "
                 "(residual %.4f ms)\n",
                 p, wall, ms(gaps), ms(waited), residual);
    if (!disjoint || residual > kToleranceMs + kToleranceShare * wall) {
      result.fail("accounting: party " + std::to_string(p) +
                  " waits do not partition its wall time (residual " +
                  std::to_string(residual) + " ms)");
    }
    busy += ms(overlap(b0, b1, in.t0, in.t1) - window_waited);
    party_cpu += ms(in.parties->cpu_end[slot] - in.parties->cpu_start[slot]);
  }

  const auto& log0 = in.logs[0];
  double detections = 0.0;
  double recovered = 0.0;
  for (int p = 0; p < trustddl::core::kComputingParties; ++p) {
    if (p == in.byzantine_party) {
      continue;
    }
    detections += static_cast<double>(in.logs[static_cast<std::size_t>(p)]
                                          .events.size());
    recovered += static_cast<double>(
        in.logs[static_cast<std::size_t>(p)].recovered_opens);
  }
  const double probes = static_cast<double>(in.recorder->probe_calls());
  const double hits = static_cast<double>(in.recorder->probe_hits());

  set(result, "net.msgs_per_op", msgs / in.ops);
  set(result, "net.send_ms_per_op", send_ms / in.ops);
  set(result, "net.polls_per_op", probes / in.session_ops);
  set(result, "net.poll_hit_ratio", probes > 0 ? hits / probes : 0.0);
  set(result, "net.recv_timeouts", static_cast<double>(timeouts));
  set(result, "mpc.rounds_per_op",
      static_cast<double>(log0.opens) / in.session_ops);
  set(result, "mpc.values_per_round",
      log0.opens > 0 ? static_cast<double>(log0.values_opened) /
                           static_cast<double>(log0.opens)
                     : 0.0);
  set(result, "mpc.open_mb_per_op", open_bytes / kMiB / in.ops);
  set(result, "mpc.open_wait_ms_per_op", open_wait / in.ops);
  set(result, "mpc.detections", detections);
  set(result, "mpc.recovered_opens", recovered);
  set(result, "core.dealer_wait_ms_per_op", dealer_wait / in.ops);
  set(result, "core.dealer_requests_per_op", dealer_requests / in.ops);
  set(result, "core.dealer_mb_per_op", dealer_bytes / kMiB / in.ops);
  set(result, "core.softmax_wait_ms_per_op", owner_wait / in.ops);
  set(result, "core.party_busy_ms_per_op", busy / in.ops);
  set(result, "core.party_cpu_ms_per_op", party_cpu / in.ops);
  set(result, "core.rendezvous_ms", ms(in.rendezvous_t1 - in.session_t0));
  set(result, "core.share_params_ms", ms(params_done - in.rendezvous_t1));
  set(result, "core.warmup_ms", ms(in.setup_t1 - params_done));
}

void fill_missing_layers(Result& result) {
  for (const auto& def : kLayerMetrics) {
    if (result.per_layer.count(def.name) == 0) {
      result.per_layer[def.name] = Metric{0.0, def.unit};
    }
  }
}

void write_trace(const std::string& dir, const std::string& workload,
                 const std::vector<Span>& spans,
                 const RecordingTransport& recorder) {
  std::filesystem::create_directories(dir);
  std::ofstream span_file(dir + "/" + workload + ".spans.jsonl");
  for (const auto& span : spans) {
    span_file << "{\"name\": \"" << json_escape(span.name)
              << "\", \"actor\": " << span.actor << ", \"id\": " << span.id
              << ", \"t0_ns\": " << span.t0 << ", \"dur_ns\": "
              << span.t1 - span.t0 << ", \"cpu_ns\": " << span.cpu1 - span.cpu0
              << "}\n";
  }
  static const char* const kOps[] = {"send", "recv", "poll_wait", "probe_hit",
                                     "timeout"};
  std::ofstream event_file(dir + "/" + workload + ".events.jsonl");
  for (const auto& event : recorder.events()) {
    event_file << "{\"op\": \"" << kOps[static_cast<int>(event.op)]
               << "\", \"class\": \"" << tag_class_name(event.cls)
               << "\", \"actor\": " << event.actor << ", \"peer\": "
               << event.peer << ", \"tag\": \"" << json_escape(event.tag)
               << "\", \"bytes\": " << event.bytes << ", \"t0_ns\": "
               << event.t0 << ", \"dur_ns\": " << event.t1 - event.t0
               << "}\n";
  }
}

std::string digest_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, hash);
  return hex;
}

void print_result(const Result& result) {
  for (const auto& problem : result.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"setup_s\": %.10g, "
              "\"peak_rss_mb\": %.10g, \"ops\": %.10g, \"window_s\": %.10g, "
              "\"cpu_s\": %.10g, \"bytes\": %" PRIu64
              ", \"burst_rps\": %.10g, \"digest\": \"%s\", \"latency_ms\": [",
              result.correct ? "true" : "false", result.attempted,
              result.failed, result.setup_s, result.peak_rss_mb, result.ops,
              result.window_s, result.cpu_s, result.bytes, result.burst_rps,
              result.digest.c_str());
  for (std::size_t i = 0; i < result.latency_ms.size(); ++i) {
    std::printf("%s%.10g", i == 0 ? "" : ", ", result.latency_ms[i]);
  }
  std::printf("], \"per_layer\": {");
  print_metrics(result.per_layer);
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
