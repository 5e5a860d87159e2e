// Loopback-TCP mirror of tests/test_network.cpp: the TCP transport
// must behave exactly like the in-memory mailbox network — same tag
// demultiplexing, same TimeoutError mapping, same traffic-metering
// shape — so every protocol runs unchanged over sockets.
#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "net/network.hpp"
#include "net/runtime.hpp"
#include "obs/health.hpp"

namespace trustddl::net {
namespace {

NetworkConfig fast_config(int parties) {
  NetworkConfig config;
  config.num_parties = parties;
  config.recv_timeout = std::chrono::milliseconds(2000);
  return config;
}

TEST(TcpTransportTest, ParseAddress) {
  const TcpAddress address = parse_address("127.0.0.1:29500");
  EXPECT_EQ(address.host, "127.0.0.1");
  EXPECT_EQ(address.port, 29500);
  EXPECT_THROW(parse_address("no-port"), InvalidArgument);
  EXPECT_THROW(parse_address(":123"), InvalidArgument);
  EXPECT_THROW(parse_address("host:99999"), InvalidArgument);
}

TEST(TcpTransportTest, SendReceiveRoundTrip) {
  TcpFabric fabric(fast_config(2));
  run_parties(2, [&](PartyId party) {
    Endpoint endpoint = fabric.endpoint(party);
    if (party == 0) {
      endpoint.send(1, "greeting", Bytes{1, 2, 3});
    } else {
      EXPECT_EQ(endpoint.recv(0, "greeting"), (Bytes{1, 2, 3}));
    }
  });
}

TEST(TcpTransportTest, TagMatchingIgnoresOtherTags) {
  TcpFabric fabric(fast_config(2));
  run_parties(2, [&](PartyId party) {
    Endpoint endpoint = fabric.endpoint(party);
    if (party == 0) {
      endpoint.send(1, "second", Bytes{2});
      endpoint.send(1, "first", Bytes{1});
    } else {
      // Receive in the opposite order of sending: the reader thread
      // demultiplexes into tag-keyed mailboxes, so order is free.
      EXPECT_EQ(endpoint.recv(0, "first"), Bytes{1});
      EXPECT_EQ(endpoint.recv(0, "second"), Bytes{2});
    }
  });
}

TEST(TcpTransportTest, RecvTimesOutWithTimeoutError) {
  NetworkConfig config = fast_config(2);
  config.recv_timeout = std::chrono::milliseconds(50);
  TcpFabric fabric(config);
  Endpoint endpoint = fabric.endpoint(0);
  EXPECT_THROW(endpoint.recv(1, "never-sent"), TimeoutError);
}

TEST(TcpTransportTest, ExplicitTimeoutOverride) {
  TcpFabric fabric(fast_config(2));
  Endpoint endpoint = fabric.endpoint(0);
  EXPECT_THROW(endpoint.recv(1, "nope", std::chrono::milliseconds(10)),
               TimeoutError);
}

TEST(TcpTransportTest, TryRecvNonBlocking) {
  TcpFabric fabric(fast_config(2));
  Endpoint receiver = fabric.endpoint(1);
  Bytes out;
  EXPECT_FALSE(receiver.try_recv(0, "ping", out));
  fabric.endpoint(0).send(1, "ping", Bytes{9});
  // The frame crosses a real socket; poll until the reader thread has
  // delivered it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!receiver.try_recv(0, "ping", out)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(out, Bytes{9});
}

TEST(TcpTransportTest, SelfSendRejected) {
  TcpFabric fabric(fast_config(2));
  Endpoint endpoint = fabric.endpoint(0);
  EXPECT_THROW(endpoint.send(0, "loop", Bytes{}), InvalidArgument);
}

TEST(TcpTransportTest, LargePayloadSurvivesFraming) {
  TcpFabric fabric(fast_config(2));
  Bytes blob(1 << 20);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 2654435761u);
  }
  run_parties(2, [&](PartyId party) {
    Endpoint endpoint = fabric.endpoint(party);
    if (party == 0) {
      endpoint.send(1, "blob", blob);
    } else {
      EXPECT_EQ(endpoint.recv(0, "blob", std::chrono::seconds(10)), blob);
    }
  });
}

TEST(TcpTransportTest, TrafficMeteringParityWithInMemory) {
  // The same message pattern must produce an identical snapshot on
  // both transports: each message metered once, at its sender.
  const auto drive = [](Transport& transport) {
    run_parties(3, [&](PartyId party) {
      Endpoint endpoint = transport.endpoint(party);
      if (party == 0) {
        endpoint.send(1, "x", Bytes(100, 0));
        endpoint.send(2, "x", Bytes(50, 0));
      } else {
        endpoint.recv(0, "x");
      }
    });
  };

  Network network(fast_config(3));
  TcpFabric fabric(fast_config(3));
  drive(network);
  drive(fabric);

  const TrafficSnapshot expected = network.traffic();
  const TrafficSnapshot actual = fabric.traffic();
  EXPECT_EQ(actual.total_messages, expected.total_messages);
  EXPECT_EQ(actual.total_bytes, expected.total_bytes);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(actual.links[i][j].messages, expected.links[i][j].messages)
          << "link " << i << "->" << j;
      EXPECT_EQ(actual.links[i][j].bytes, expected.links[i][j].bytes)
          << "link " << i << "->" << j;
    }
  }

  fabric.reset_traffic();
  EXPECT_EQ(fabric.traffic().total_messages, 0u);
}

TEST(TcpTransportTest, DroppedMessagesStillMeteredButNotDelivered) {
  class DropAll final : public FaultInjector {
   public:
    FaultDecision on_message(const Message&) override {
      return FaultDecision{.drop = true};
    }
  };
  NetworkConfig config = fast_config(2);
  config.recv_timeout = std::chrono::milliseconds(30);
  TcpFabric fabric(config);
  fabric.set_fault_injector(std::make_shared<DropAll>());
  fabric.endpoint(0).send(1, "gone", Bytes{1});
  EXPECT_EQ(fabric.traffic().total_messages, 1u);
  EXPECT_THROW(fabric.endpoint(1).recv(0, "gone"), TimeoutError);
}

TEST(TcpTransportTest, CorruptedPayloadDelivered) {
  class CorruptAll final : public FaultInjector {
   public:
    FaultDecision on_message(const Message&) override {
      return FaultDecision{.corrupt = true};
    }
  };
  TcpFabric fabric(fast_config(2));
  fabric.set_fault_injector(std::make_shared<CorruptAll>());
  fabric.endpoint(0).send(1, "bits", Bytes{0x00});
  EXPECT_EQ(fabric.endpoint(1).recv(0, "bits"), Bytes{0xa5});
}

TEST(TcpTransportTest, ManyConcurrentMessages) {
  TcpFabric fabric(fast_config(3));
  std::atomic<int> received{0};
  run_parties(3, [&](PartyId party) {
    Endpoint endpoint = fabric.endpoint(party);
    for (int round = 0; round < 50; ++round) {
      const std::string tag = "round/" + std::to_string(round);
      for (int other = 0; other < 3; ++other) {
        if (other != party) {
          endpoint.send(other, tag, Bytes{static_cast<std::uint8_t>(party)});
        }
      }
      for (int other = 0; other < 3; ++other) {
        if (other != party) {
          const Bytes payload = endpoint.recv(other, tag);
          EXPECT_EQ(payload[0], static_cast<std::uint8_t>(other));
          received.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(received.load(), 3 * 50 * 2);
}

TEST(TcpTransportTest, ExplicitRendezvousBetweenTransports) {
  // Two directly-constructed transports (no fabric): ephemeral ports,
  // addresses exchanged after binding, concurrent connect() as two
  // processes would do it.
  NetworkConfig config = fast_config(2);
  TcpTransport alice(0, "127.0.0.1:0", config);
  TcpTransport bob(1, "127.0.0.1:0", config);
  const std::vector<std::string> addresses = {
      "127.0.0.1:" + std::to_string(alice.bound_port()),
      "127.0.0.1:" + std::to_string(bob.bound_port()),
  };
  std::thread bob_thread([&] { bob.connect(addresses); });
  alice.connect(addresses);
  bob_thread.join();

  alice.endpoint(0).send(1, "hi", Bytes{42});
  EXPECT_EQ(bob.endpoint(1).recv(0, "hi"), Bytes{42});
  // Only the local party's endpoint is served.
  EXPECT_THROW(alice.endpoint(1), InvalidArgument);

  // Graceful shutdown is idempotent and leaves the other side's recv
  // timing out rather than crashing.
  alice.shutdown();
  alice.shutdown();
  EXPECT_THROW(
      bob.endpoint(1).recv(0, "after", std::chrono::milliseconds(30)),
      TimeoutError);
}

TEST(TcpTransportTest, ConnectTimesOutAgainstDeadAddress) {
  NetworkConfig config = fast_config(2);
  config.connect.connect_timeout = std::chrono::milliseconds(200);
  config.connect.initial_backoff = std::chrono::milliseconds(20);
  TcpTransport transport(1, "127.0.0.1:0", config);
  // Port 1 on localhost refuses connections; the retry budget expires.
  const std::vector<std::string> addresses = {
      "127.0.0.1:1",
      "127.0.0.1:" + std::to_string(transport.bound_port()),
  };
  EXPECT_THROW(transport.connect(addresses), TimeoutError);
}

TEST(TcpTransportTest, InjectedDelayHoldsDelivery) {
  class DelayAll final : public FaultInjector {
   public:
    FaultDecision on_message(const Message&) override {
      return FaultDecision{.delay = std::chrono::milliseconds(80)};
    }
  };
  TcpFabric fabric(fast_config(2));
  fabric.set_fault_injector(std::make_shared<DelayAll>());
  const auto start = std::chrono::steady_clock::now();
  run_parties(2, [&](PartyId party) {
    Endpoint endpoint = fabric.endpoint(party);
    if (party == 0) {
      endpoint.send(1, "slow", Bytes{7});
    } else {
      EXPECT_EQ(endpoint.recv(0, "slow"), Bytes{7});
    }
  });
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(75));
}

/// This process's resident set, in KiB (0 where /proc is unavailable).
std::size_t resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoul(line.substr(6));
    }
  }
  return 0;
}

void put_le(std::vector<std::uint8_t>& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

/// A raw loopback socket that completed the hello as party 1 with the
/// transport listening on `port`; -1 if any step failed.
int dial_as_party_one(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  std::vector<std::uint8_t> hello;
  put_le(hello, 0x314c4454, 4);  // magic "TDL1" | party 1
  put_le(hello, 1, 4);
  if (fd < 0 || ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0 ||
      ::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(hello.size())) {
    if (fd >= 0) {
      ::close(fd);
    }
    return -1;
  }
  return fd;
}

TEST(TcpTransportTest, ClaimedFrameLengthDoesNotReserveUnsentBytes) {
  // A peer's frame header claims 1 GiB and sends five bytes of it.  The
  // reader must hold memory only for bytes that arrived, and the link
  // must close cleanly when the socket does.
  NetworkConfig config = fast_config(2);
  config.connect.connect_timeout = std::chrono::milliseconds(5000);
  TcpTransport receiver(0, "127.0.0.1:0", config);
  const std::vector<std::string> addresses = {
      "127.0.0.1:" + std::to_string(receiver.bound_port()), ""};
  bool linked = false;
  std::thread rendezvous([&] {
    try {
      receiver.connect(addresses, {1});
      linked = true;
    } catch (const Error&) {
    }
  });
  const int fd = dial_as_party_one(receiver.bound_port());
  rendezvous.join();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(linked);

  std::vector<std::uint8_t> bytes;
  const std::size_t before = resident_kib();
  put_le(bytes, 0x314c4454, 4);  // frame: magic | sender | tag_len
  put_le(bytes, 1, 4);
  put_le(bytes, 1, 4);
  bytes.push_back('x');
  put_le(bytes, std::uint64_t{1} << 30, 8);  // the claimed payload
  for (int i = 0; i < 5; ++i) {
    bytes.push_back(0x11);
  }
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t after = resident_kib();
  EXPECT_LT(after, before + 256 * 1024)
      << "VmRSS grew from " << before << " to " << after << " KiB";

  ::close(fd);
  Bytes out;
  EXPECT_FALSE(receiver.endpoint(0).try_recv(1, "x", out));
  const auto start = std::chrono::steady_clock::now();
  receiver.shutdown();  // joins the reader, which saw EOF
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(2));
}

TEST(TcpTransportTest, PartialWritesDeliverFramesByteExact) {
  // One frame larger than a loopback socket buffer goes out in pieces;
  // an empty payload and an injected corruption keep their framing,
  // and the traffic meter counts exactly what the frames carry.
  class CorruptTagged final : public FaultInjector {
   public:
    FaultDecision on_message(const Message& message) override {
      return FaultDecision{.corrupt = message.tag == "corrupt"};
    }
  };
  NetworkConfig config = fast_config(2);
  config.recv_timeout = std::chrono::milliseconds(20000);
  TcpFabric fabric(config);
  fabric.set_fault_injector(std::make_shared<CorruptTagged>());
  Bytes blob(std::size_t{64} << 20);
  for (std::size_t i = 0; i < blob.size(); i += 8) {
    const std::uint64_t word = (i + 1) * 0x9e3779b97f4a7c15ULL;
    std::memcpy(blob.data() + i, &word, sizeof(word));
  }
  const Bytes small{1, 2, 3};
  const std::vector<std::pair<std::string, const Bytes*>> sent = {
      {"blob", &blob}, {"empty", nullptr}, {"corrupt", &small},
      {"after", &small}};
  std::uint64_t wire_bytes = 0;
  for (const auto& [tag, payload] : sent) {
    wire_bytes += Message{0, 1, tag, payload ? *payload : Bytes{}}.wire_size();
  }
  run_parties(2, [&](PartyId party) {
    Endpoint endpoint = fabric.endpoint(party);
    if (party == 0) {
      for (const auto& [tag, payload] : sent) {
        endpoint.send(1, tag, payload ? *payload : Bytes{});
      }
      return;
    }
    EXPECT_TRUE(endpoint.recv(0, "blob") == blob);
    EXPECT_TRUE(endpoint.recv(0, "empty").empty());
    EXPECT_EQ(endpoint.recv(0, "corrupt"), (Bytes{1, 2, 3 ^ 0xa5}));
    EXPECT_EQ(endpoint.recv(0, "after"), small);
  });
  const TrafficSnapshot traffic = fabric.traffic();
  EXPECT_EQ(traffic.total_messages, sent.size());
  EXPECT_EQ(traffic.total_bytes, wire_bytes);
  EXPECT_EQ(traffic.links[0][1].messages, sent.size());
  EXPECT_EQ(traffic.links[0][1].bytes, wire_bytes);
}

TEST(NetworkLatencyTest, EmulatedLatencyDoesNotBlockTheSender) {
  // Satellite regression: the sender stamps delivery times instead of
  // sleeping, so fanning out N messages costs ~1 link latency at the
  // receivers, not N at the sender.
  NetworkConfig config;
  config.num_parties = 3;
  config.emulate_latency = true;
  config.link_latency = std::chrono::microseconds(50000);  // 50 ms
  Network network(config);

  Endpoint sender = network.endpoint(0);
  const auto send_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    sender.send(1, "t/" + std::to_string(i), Bytes{1});
    sender.send(2, "t/" + std::to_string(i), Bytes{1});
  }
  const auto send_elapsed = std::chrono::steady_clock::now() - send_start;
  // 8 messages x 50 ms would be 400 ms under the old sender-side
  // sleep; stamping is effectively instant.
  EXPECT_LT(send_elapsed, std::chrono::milliseconds(40));

  // The latency is still charged: nothing is deliverable early...
  Bytes out;
  EXPECT_FALSE(network.endpoint(1).try_recv(0, "t/0", out));
  // ...but all messages become deliverable one overlapped latency
  // later (plus scheduling slack).
  const auto recv_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(network.endpoint(1).recv(0, "t/" + std::to_string(i)),
              Bytes{1});
    EXPECT_EQ(network.endpoint(2).recv(0, "t/" + std::to_string(i)),
              Bytes{1});
  }
  const auto recv_elapsed = std::chrono::steady_clock::now() - recv_start;
  EXPECT_LT(recv_elapsed, std::chrono::milliseconds(200));
}

TEST(TcpTransportDynamicTest, ClientChurnKeepsLinksAndHealthClean) {
  // Fleet pods accept clients dynamically; clients attach, speak,
  // leave, and re-attach at will (possibly while another client is
  // mid-conversation).  Every reconnect must replace the stale link
  // (reaping the old reader thread), every departure must drop the
  // peer from HealthState, and sends to a departed client must be
  // dropped — not fatal.
  obs::set_health_enabled(true);
  obs::HealthState::global().reset();
  NetworkConfig config = fast_config(3);
  config.recv_timeout = std::chrono::milliseconds(5000);
  TcpTransport server(0, "127.0.0.1:0", config);
  const std::vector<std::string> addresses = {
      "127.0.0.1:" + std::to_string(server.bound_port()), "", ""};
  server.connect(addresses, {});
  server.accept_dynamic_peers(1);

  constexpr int kRounds = 3;
  auto churn = [&](PartyId id) {
    for (int round = 0; round < kRounds; ++round) {
      TcpTransport client(id, "127.0.0.1:0", config);
      client.connect(addresses, {0});
      const std::string suffix =
          std::to_string(id) + "." + std::to_string(round);
      client.endpoint(id).send(0, "hello." + suffix,
                               Bytes{static_cast<std::uint8_t>(round)});
      EXPECT_EQ(client.endpoint(id).recv(0, "ack." + suffix),
                Bytes{static_cast<std::uint8_t>(round)});
      client.shutdown();
    }
  };
  std::thread churn1([&] { churn(1); });
  std::thread churn2([&] { churn(2); });

  // The server answers each hello in order per client; tag-keyed
  // mailboxes buffer whatever interleaving the churn produces.  The
  // hello arriving proves the round's fresh link is installed, so the
  // ack below travels over it.
  Endpoint endpoint = server.endpoint(0);
  for (int round = 0; round < kRounds; ++round) {
    for (const PartyId id : {PartyId{1}, PartyId{2}}) {
      const std::string suffix =
          std::to_string(id) + "." + std::to_string(round);
      EXPECT_EQ(endpoint.recv(id, "hello." + suffix),
                Bytes{static_cast<std::uint8_t>(round)});
      endpoint.send(id, "ack." + suffix,
                    Bytes{static_cast<std::uint8_t>(round)});
    }
  }
  churn1.join();
  churn2.join();

  // Give the reader threads a beat to observe the final EOFs, then
  // check the departures registered: both clients out of the health
  // view, and a send to a gone client is a metered drop, not a throw.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (const auto& sample : obs::HealthState::global().peers()) {
    EXPECT_NE(sample.peer, 1);
    EXPECT_NE(sample.peer, 2);
  }
  EXPECT_NO_THROW(endpoint.send(1, "into.the.void", Bytes{9}));

  // One more attach proves the acceptor outlives arbitrary churn.
  TcpTransport again(1, "127.0.0.1:0", config);
  again.connect(addresses, {0});
  again.endpoint(1).send(0, "hello.again", Bytes{7});
  EXPECT_EQ(endpoint.recv(1, "hello.again"), Bytes{7});
  bool seen = false;
  for (const auto& sample : obs::HealthState::global().peers()) {
    seen = seen || sample.peer == 1;
  }
  EXPECT_TRUE(seen);
  again.shutdown();
  server.shutdown();
  obs::HealthState::global().reset();
  obs::set_health_enabled(false);
}

}  // namespace
}  // namespace trustddl::net
