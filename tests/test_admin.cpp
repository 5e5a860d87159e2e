// Introspection-plane tests: the admin HTTP endpoint (healthz flips
// on peer silence, live /metrics equals the exit-time export, robust
// handling of malformed requests), the Prometheus text exposition, the
// health state's heartbeat/watermark bookkeeping, and concurrent
// scrapes against a churning registry.
//
// Suite names contain "Admin" so the CI thread-sanitizer job picks
// them up — the endpoint's whole contract is that scraping a hot
// process is safe.
#include "obs/admin_server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace trustddl {
namespace {

/// Save/restore the process-global flags so tests compose in one
/// process regardless of environment overrides.
class ObsFlagsGuard {
 public:
  ObsFlagsGuard()
      : metrics_(obs::metrics_enabled()), health_(obs::health_enabled()) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset();
    obs::HealthState::global().reset();
    obs::EventLog::global().clear();
  }
  ~ObsFlagsGuard() {
    obs::set_metrics_enabled(metrics_);
    obs::set_health_enabled(health_);
    obs::MetricsRegistry::global().reset();
    obs::HealthState::global().reset();
    obs::EventLog::global().clear();
  }

 private:
  bool metrics_;
  bool health_;
};

/// Sends raw bytes to the server and returns everything it answers —
/// for the malformed-request cases http_get cannot produce.
std::string raw_request(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  std::string response;
  char buffer[1024];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST(AdminHealthTest, HealthzFlipsOnPeerSilenceAndRecovers) {
  ObsFlagsGuard guard;
  obs::AdminOptions options;
  options.stale_after_ms = 150;
  obs::AdminServer server(options);
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);
  obs::HealthState::global().set_identity("test-party", "unit");

  // A fresh heartbeat: healthy.
  obs::HealthState::global().note_peer(1);
  obs::HttpResponse response =
      obs::http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"role\": \"test-party\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"peer\": 1"), std::string::npos);

  // Simulated silence: peer 1 sends nothing for > stale_after_ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  response = obs::http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("\"status\": \"degraded\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"stale\": true"), std::string::npos);

  // The peer chatters again: healthy again.
  obs::HealthState::global().note_peer(1);
  response = obs::http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(response.status, 200);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(AdminHealthTest, WatermarksAreMonotonicAndListed) {
  ObsFlagsGuard guard;
  obs::set_health_enabled(true);
  obs::HealthState::global().note_progress("serve.last_batch", 7);
  obs::HealthState::global().note_progress("serve.last_batch", 3);
  obs::HealthState::global().note_progress("train.last_round", 1);
  const auto watermarks = obs::HealthState::global().watermarks();
  ASSERT_EQ(watermarks.size(), 2u);
  EXPECT_EQ(watermarks[0].first, "serve.last_batch");
  EXPECT_EQ(watermarks[0].second, 7u);  // 3 must not regress it
  EXPECT_EQ(watermarks[1].second, 1u);
}

TEST(AdminMetricsTest, LiveScrapeEqualsExitExportWhenQuiesced) {
  ObsFlagsGuard guard;
  obs::count("test.admin.counter", 41);
  obs::gauge_add("test.admin.gauge", 5);
  obs::observe("test.admin.hist", 17);

  // The provider a party installs, over a session whose role table has
  // finished (the wall clock is frozen): once the workload is quiesced,
  // a scrape and the exit export render byte-identical documents.
  core::Session session(core::EngineConfig{}, 5);
  session.run({{0, [] {}}});
  obs::AdminServer server;
  server.set_metrics_provider([&](const obs::MetricsSnapshot& snapshot) {
    return session.export_json(snapshot);
  });
  server.start();

  const obs::HttpResponse scrape =
      obs::http_get("127.0.0.1", server.port(), "/metrics");
  ASSERT_EQ(scrape.status, 200);
  const std::string exit_export =
      session.export_json(obs::MetricsRegistry::global().snapshot());
  EXPECT_EQ(scrape.body, exit_export);
  EXPECT_NE(scrape.body.find("\"test.admin.counter\": 41"),
            std::string::npos);
  server.stop();
}

TEST(AdminMetricsTest, PrometheusExpositionMatchesRegistry) {
  ObsFlagsGuard guard;
  obs::count("test.prom.counter", 9);
  obs::gauge_add("test.prom.gauge", 4);
  obs::gauge_add("test.prom.gauge", -1);
  obs::observe("test.prom.hist", 5);  // lands in the le="16" bucket

  const std::string text =
      obs::prometheus_text(obs::MetricsRegistry::global().snapshot());
  EXPECT_NE(text.find("# TYPE trustddl_test_prom_counter counter\n"
                      "trustddl_test_prom_counter 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("trustddl_test_prom_gauge 3\n"), std::string::npos);
  EXPECT_NE(text.find("trustddl_test_prom_gauge_peak 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("trustddl_test_prom_hist_bucket{le=\"4\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("trustddl_test_prom_hist_bucket{le=\"16\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("trustddl_test_prom_hist_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("trustddl_test_prom_hist_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("trustddl_test_prom_hist_sum 5\n"),
            std::string::npos);
}

TEST(AdminMetricsTest, PairFormatRendersOneSnapshot) {
  ObsFlagsGuard guard;
  obs::count("test.pair.counter", 23);
  obs::AdminServer server;
  server.start();
  const obs::HttpResponse response = obs::http_get(
      "127.0.0.1", server.port(), "/metrics?format=pair");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"schema\": \"trustddl.admin.pair.v1\""),
            std::string::npos);
  // The same scrape in both views: the JSON export carries the counter
  // and the escaped prometheus text carries the same value.
  EXPECT_NE(response.body.find("\"test.pair.counter\": 23"),
            std::string::npos);
  EXPECT_NE(response.body.find("trustddl_test_pair_counter 23"),
            std::string::npos);
  server.stop();
}

TEST(AdminEventsTest, EventsEndpointServesTail) {
  ObsFlagsGuard guard;
  obs::DetectionEventRecord record;
  record.party = 0;
  record.suspect = 2;
  record.step = 11;
  record.kind = "commitment_violation";
  record.phase = "exchange";
  record.recovery = "discard_shares";
  obs::EventLog::global().record(record);

  obs::AdminServer server;
  server.start();
  obs::HttpResponse response =
      obs::http_get("127.0.0.1", server.port(), "/events?n=10");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"suspect\": 2"), std::string::npos);
  EXPECT_NE(response.body.find("commitment_violation"), std::string::npos);
  // n=0 asks for an empty tail.
  response = obs::http_get("127.0.0.1", server.port(), "/events?n=0");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.find("suspect"), std::string::npos);
  server.stop();
}

TEST(AdminServerTest, StatusReportsIdentityAndLedgers) {
  ObsFlagsGuard guard;
  obs::count("serve.requests.admitted", 6);
  obs::AdminServer server;
  server.start();
  obs::HealthState::global().set_identity("computing-party-0", "serve");
  const obs::HttpResponse response =
      obs::http_get("127.0.0.1", server.port(), "/status");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"role\": \"computing-party-0\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"task\": \"serve\""), std::string::npos);
  EXPECT_NE(response.body.find("\"serve.requests.admitted\": 6"),
            std::string::npos);
  server.stop();
}

TEST(AdminServerTest, MalformedRequestsAnswerErrorsAndServerSurvives) {
  ObsFlagsGuard guard;
  obs::AdminServer server;
  server.start();
  const int port = server.port();

  EXPECT_NE(raw_request(port, "garbage\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(raw_request(port, "POST /healthz HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
  EXPECT_NE(raw_request(port, "GET /nosuch HTTP/1.0\r\n\r\n").find("404"),
            std::string::npos);
  // A request over the 4KB cap is rejected, not buffered forever.
  EXPECT_NE(raw_request(port, "GET /" + std::string(8192, 'a') +
                                  " HTTP/1.0\r\n\r\n")
                .find("400"),
            std::string::npos);
  // An empty connection (client connects and hangs up) is tolerated.
  raw_request(port, "");

  // After all that abuse the server still answers cleanly.
  const obs::HttpResponse response =
      obs::http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(response.status, 200);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  std::uint64_t errors = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "admin.http.errors") {
      errors = value;
    }
  }
  EXPECT_GE(errors, 3u);
  server.stop();
}

TEST(AdminServerTest, ConcurrentScrapesAgainstChurningRegistry) {
  ObsFlagsGuard guard;
  obs::AdminServer server;
  server.start();
  const int port = server.port();

  // A writer hammers every instrument family while four scrapers pull
  // every endpoint — the tsan job runs this suite to prove a scrape
  // never races the lock-free registry or the health table.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::count("test.churn.counter");
      obs::gauge_add("test.churn.gauge", i % 2 == 0 ? 1 : -1);
      obs::observe("test.churn.hist", i % 257);
      obs::HealthState::global().note_peer(static_cast<int>(i % 5));
      obs::HealthState::global().note_progress("test.churn", i);
      ++i;
    }
  });

  const char* targets[] = {"/healthz", "/metrics", "/events?n=5", "/status",
                           "/metrics?format=prometheus"};
  std::vector<std::thread> scrapers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const obs::HttpResponse response = obs::http_get(
            "127.0.0.1", port, targets[(t + i) % 5], 5000);
        if (response.status != 200 && response.status != 503) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& scraper : scrapers) {
    scraper.join();
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.requests_served(), 32u);
  server.stop();
}

TEST(AdminServerTest, StopIsIdempotentAndPortIsReusable) {
  ObsFlagsGuard guard;
  int port = 0;
  {
    obs::AdminServer server;
    server.start();
    port = server.port();
    server.stop();
    server.stop();  // second stop is a no-op
  }                 // destructor after stop is a no-op too
  // The old port is free again: a new server can bind it right away.
  obs::AdminOptions options;
  options.port = port;
  obs::AdminServer server(options);
  server.start();
  EXPECT_EQ(server.port(), port);
  const obs::HttpResponse response =
      obs::http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(response.status, 200);
  server.stop();
}

}  // namespace
}  // namespace trustddl
