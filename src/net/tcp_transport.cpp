#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace trustddl::net {
namespace {

constexpr const char* kLog = "net.tcp";

constexpr std::uint32_t kMagic = 0x314c4454;  // "TDL1"
constexpr std::uint32_t kMaxTagLen = 1u << 16;
constexpr std::uint64_t kMaxPayloadLen = 1ull << 33;
constexpr std::size_t kFrameHeaderLen = 12;  // magic + sender + tag_len
/// A payload's buffer grows only as its bytes arrive: by this much, or
/// by what has arrived when that is more.  A header that claims more
/// than the peer sends thus holds at most the bytes sent plus this, or
/// twice the bytes sent.  Large enough that the biggest routine frame
/// (a ~21 MB aggregation fill) lands in its first allocation.
constexpr std::size_t kPayloadGrowth = std::size_t{32} << 20;

void put_u32(std::uint8_t* out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void put_u64(std::uint8_t* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return value;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

/// Read exactly `size` bytes; false on EOF/error (connection gone).
bool read_exact(int fd, std::uint8_t* out, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, out + done, size - done, 0);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR)) {
      continue;
    }
    return false;  // orderly shutdown (0) or hard error
  }
  return true;
}

/// Read a `size`-byte payload into `out`, growing it only as bytes
/// arrive (kPayloadGrowth); false on EOF/error.
bool read_payload(int fd, Bytes& out, std::uint64_t size) {
  out.clear();
  while (out.size() < size) {
    const std::size_t have = out.size();
    const std::size_t step = static_cast<std::size_t>(
        std::min<std::uint64_t>(size - have,
                                std::max(kPayloadGrowth, have)));
    out.resize(have + step);  // unwritten bytes: read_exact fills them
    if (!read_exact(fd, out.data() + have, step)) {
      return false;
    }
  }
  return true;
}

/// Write every byte of `parts[0..count)` with as few syscalls as the
/// socket allows: one sendmsg, unless the kernel takes a partial write
/// (a payload larger than the socket buffer), when the rest follows
/// from where it stopped.  Throws on a dead connection.
void write_all(int fd, iovec* parts, std::size_t count) {
  while (count > 0) {
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw ProtocolError(std::string("tcp send failed: ") +
                          std::strerror(errno));
    }
    auto sent = static_cast<std::size_t>(n);
    while (count > 0 && sent >= parts->iov_len) {
      sent -= parts->iov_len;
      ++parts;
      --count;
    }
    if (count > 0) {
      parts->iov_base = static_cast<std::uint8_t*>(parts->iov_base) + sent;
      parts->iov_len -= sent;
    }
  }
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

struct ResolvedAddress {
  sockaddr_storage storage{};
  socklen_t length = 0;
};

ResolvedAddress resolve(const TcpAddress& address) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(address.port);
  const int rc = ::getaddrinfo(address.host.c_str(), port.c_str(), &hints,
                               &result);
  if (rc != 0 || result == nullptr) {
    throw InvalidArgument("cannot resolve address '" + address.host + ":" +
                          port + "': " + ::gai_strerror(rc));
  }
  ResolvedAddress out;
  std::memcpy(&out.storage, result->ai_addr, result->ai_addrlen);
  out.length = result->ai_addrlen;
  ::freeaddrinfo(result);
  return out;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Bound the blocking reads on `fd` (0 ms clears the bound) — used
/// for the dynamic-acceptor hello so a half-open connection cannot
/// wedge the acceptor thread.
void set_recv_timeout(int fd, long ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

TcpAddress parse_address(const std::string& text) {
  const auto colon = text.rfind(':');
  TRUSTDDL_REQUIRE(colon != std::string::npos && colon > 0 &&
                       colon + 1 < text.size(),
                   "address must be host:port");
  TcpAddress address;
  address.host = text.substr(0, colon);
  // Port 0 is allowed: binding to it picks an ephemeral port.
  const long port = std::strtol(text.c_str() + colon + 1, nullptr, 10);
  TRUSTDDL_REQUIRE(port >= 0 && port <= 65535, "port out of range");
  address.port = static_cast<std::uint16_t>(port);
  return address;
}

TcpTransport::TcpTransport(PartyId self, const std::string& listen_address,
                           NetworkConfig config)
    : self_(self), config_(config) {
  TRUSTDDL_REQUIRE(config_.num_parties >= 2, "transport needs >= 2 parties");
  TRUSTDDL_REQUIRE(self >= 0 && self < config_.num_parties,
                   "self id out of range");
  const auto n = static_cast<std::size_t>(config_.num_parties);
  peers_.resize(n);
  inboxes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    peers_[i] = std::make_unique<Peer>();
    inboxes_[i] = std::make_unique<TagMailbox>();
  }
  link_metrics_.assign(n, std::vector<LinkMetrics>(n));

  const TcpAddress address = parse_address(listen_address);
  const ResolvedAddress resolved = resolve(address);
  listen_fd_ = ::socket(resolved.storage.ss_family, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ProtocolError(std::string("tcp socket failed: ") +
                        std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_,
             reinterpret_cast<const sockaddr*>(&resolved.storage),
             resolved.length) != 0 ||
      ::listen(listen_fd_, config_.num_parties + 8) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(listen_fd_);
    throw ProtocolError("tcp bind/listen on " + listen_address +
                        " failed: " + reason);
  }
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    if (bound.ss_family == AF_INET) {
      bound_port_ = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      bound_port_ =
          ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
    }
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

int TcpTransport::connect_with_retry(PartyId peer_id,
                                     const TcpAddress& address) {
  TRUSTDDL_REQUIRE(address.port != 0, "cannot dial port 0");
  const ResolvedAddress resolved = resolve(address);
  const auto deadline =
      std::chrono::steady_clock::now() + config_.connect.connect_timeout;
  auto backoff = config_.connect.initial_backoff;
  for (;;) {
    const int fd = ::socket(resolved.storage.ss_family, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<const sockaddr*>(&resolved.storage),
                  resolved.length) == 0) {
      set_nodelay(fd);
      // Handshake: tell the acceptor who dialed.
      std::uint8_t hello[8];
      put_u32(hello, kMagic);
      put_u32(hello + 4, static_cast<std::uint32_t>(self_));
      iovec part{hello, sizeof(hello)};
      write_all(fd, &part, 1);
      return fd;
    }
    int closing = fd;
    close_quietly(closing);
    if (std::chrono::steady_clock::now() + backoff > deadline) {
      throw TimeoutError("tcp rendezvous: party " + std::to_string(self_) +
                         " could not connect to party " +
                         std::to_string(peer_id) + " at " + address.host +
                         ":" + std::to_string(address.port) + " within " +
                         std::to_string(config_.connect.connect_timeout
                                            .count()) +
                         " ms");
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(
        std::chrono::milliseconds(static_cast<long>(
            static_cast<double>(backoff.count()) *
            config_.connect.backoff_multiplier)),
        config_.connect.max_backoff);
  }
}

void TcpTransport::accept_higher_peers(int expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + config_.connect.connect_timeout;
  int accepted = 0;
  while (accepted < expected) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      throw TimeoutError("tcp rendezvous: party " + std::to_string(self_) +
                         " timed out waiting for " +
                         std::to_string(expected - accepted) +
                         " inbound peer connection(s)");
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc <= 0) {
      continue;  // timeout re-checked above; EINTR retried
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    std::uint8_t hello[8];
    if (!read_exact(fd, hello, sizeof(hello)) ||
        get_u32(hello) != kMagic) {
      TRUSTDDL_LOG_WARN(kLog) << "rejecting connection with bad handshake";
      close_quietly(fd);
      continue;
    }
    const auto peer_id = static_cast<PartyId>(get_u32(hello + 4));
    if (peer_id <= self_ || peer_id >= config_.num_parties ||
        peers_[static_cast<std::size_t>(peer_id)]->fd >= 0) {
      TRUSTDDL_LOG_WARN(kLog)
          << "rejecting connection claiming party " << peer_id;
      close_quietly(fd);
      continue;
    }
    set_nodelay(fd);
    peers_[static_cast<std::size_t>(peer_id)]->fd = fd;
    start_reader(peer_id);
    ++accepted;
  }
}

void TcpTransport::connect(const std::vector<std::string>& peer_addresses) {
  std::vector<PartyId> peers;
  peers.reserve(static_cast<std::size_t>(config_.num_parties) - 1);
  for (PartyId id = 0; id < config_.num_parties; ++id) {
    if (id != self_) {
      peers.push_back(id);
    }
  }
  connect(peer_addresses, peers);
}

void TcpTransport::accept_dynamic_peers(PartyId min_id) {
  TRUSTDDL_REQUIRE(min_id > self_ && min_id < config_.num_parties,
                   "accept_dynamic_peers: min_id must be above self and "
                   "inside the actor space");
  TRUSTDDL_REQUIRE(dynamic_min_id_.load() < 0,
                   "accept_dynamic_peers: already accepting");
  dynamic_min_id_.store(min_id);
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

void TcpTransport::acceptor_loop() {
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) {
      continue;  // periodic running_ re-check; EINTR retried
    }
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      return;  // listener torn down
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    // Hello under a read bound: a connection that never says who it
    // is gets dropped instead of wedging the acceptor.
    set_recv_timeout(fd, 2000);
    std::uint8_t hello[8];
    const bool ok = read_exact(fd, hello, sizeof(hello));
    set_recv_timeout(fd, 0);
    if (!ok || get_u32(hello) != kMagic) {
      TRUSTDDL_LOG_WARN(kLog)
          << "party " << self_
          << ": rejecting dynamic connection with bad handshake";
      close_quietly(fd);
      continue;
    }
    const auto peer_id = static_cast<PartyId>(get_u32(hello + 4));
    if (peer_id < dynamic_min_id_.load() || peer_id >= config_.num_parties ||
        peer_id == self_) {
      TRUSTDDL_LOG_WARN(kLog)
          << "party " << self_
          << ": rejecting dynamic connection claiming actor " << peer_id;
      close_quietly(fd);
      continue;
    }
    if (!running_.load()) {
      close_quietly(fd);
      return;
    }
    set_nodelay(fd);
    install_dynamic_peer(peer_id, fd);
  }
}

void TcpTransport::install_dynamic_peer(PartyId peer_id, int fd) {
  Peer& peer = *peers_[static_cast<std::size_t>(peer_id)];
  int old_fd = -1;
  {
    std::lock_guard<std::mutex> lock(peer.send_mu);
    old_fd = peer.fd;
    peer.fd = -1;  // sends drop while the link is swapped
  }
  if (old_fd >= 0) {
    // Wake the stale reader (client reconnected before its EOF was
    // seen, e.g. after a crash with no FIN).
    ::shutdown(old_fd, SHUT_RDWR);
  }
  if (peer.reader.joinable()) {
    // Reap the previous connection's reader before the slot is
    // reused; reader_loop caches its fd at entry, so replacing the
    // link without this join would leak a thread reading a dead
    // socket.
    peer.reader.join();
  }
  if (old_fd >= 0) {
    ::close(old_fd);
    TRUSTDDL_LOG_INFO(kLog) << "party " << self_ << ": actor " << peer_id
                            << " reconnected; stale link replaced";
  }
  {
    std::lock_guard<std::mutex> lock(peer.send_mu);
    peer.fd = fd;
  }
  start_reader(peer_id);
  obs::HealthState::global().note_peer(static_cast<int>(peer_id));
  if (obs::metrics_enabled()) {
    obs::count("net.dynamic.accepts");
  }
}

void TcpTransport::connect(const std::vector<std::string>& peer_addresses,
                           const std::vector<PartyId>& peers) {
  TRUSTDDL_REQUIRE(
      peer_addresses.size() ==
          static_cast<std::size_t>(config_.num_parties),
      "connect: need one address slot per party");
  // Dial lower ids first; their listeners have existed since
  // construction, so at worst we retry while the peer process starts.
  int higher = 0;
  for (const PartyId peer : peers) {
    TRUSTDDL_REQUIRE(peer >= 0 && peer < config_.num_parties &&
                         peer != self_,
                     "connect: invalid peer id");
    if (peer > self_) {
      ++higher;
      continue;
    }
    const TcpAddress address =
        parse_address(peer_addresses[static_cast<std::size_t>(peer)]);
    peers_[static_cast<std::size_t>(peer)]->fd =
        connect_with_retry(peer, address);
    start_reader(peer);
  }
  accept_higher_peers(higher);
}

void TcpTransport::start_reader(PartyId peer_id) {
  Peer& peer = *peers_[static_cast<std::size_t>(peer_id)];
  peer.reader = std::thread([this, peer_id] { reader_loop(peer_id); });
}

void TcpTransport::reader_loop(PartyId peer_id) {
  const int fd = peers_[static_cast<std::size_t>(peer_id)]->fd;
  std::vector<std::uint8_t> scratch;
  for (;;) {
    std::uint8_t header[kFrameHeaderLen];
    if (!read_exact(fd, header, sizeof(header))) {
      break;
    }
    const std::uint32_t magic = get_u32(header);
    const auto sender = static_cast<PartyId>(get_u32(header + 4));
    const std::uint32_t tag_len = get_u32(header + 8);
    if (magic != kMagic || sender != peer_id || tag_len > kMaxTagLen) {
      if (running_.load()) {
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << self_ << ": malformed frame from peer "
            << peer_id << "; closing link";
      }
      break;
    }
    Message message;
    message.sender = sender;
    message.receiver = self_;
    message.tag.resize(tag_len);
    scratch.resize(tag_len + 8);
    if (!read_exact(fd, scratch.data(), tag_len + 8)) {
      break;
    }
    std::memcpy(message.tag.data(), scratch.data(), tag_len);
    const std::uint64_t payload_len = get_u64(scratch.data() + tag_len);
    if (payload_len > kMaxPayloadLen) {
      TRUSTDDL_LOG_WARN(kLog)
          << "party " << self_ << ": oversized frame ("
          << payload_len << " bytes) from peer " << peer_id
          << "; closing link";
      break;
    }
    if (!read_payload(fd, message.payload, payload_len)) {
      break;
    }
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      auto& link = link_metrics_[static_cast<std::size_t>(sender)]
                                [static_cast<std::size_t>(self_)];
      link.messages += 1;
      link.bytes += message.wire_size();
    }
    // Heartbeat for /healthz: any received frame refreshes the peer's
    // freshness stamp (one relaxed store when an admin server is up).
    obs::HealthState::global().note_peer(static_cast<int>(sender));
    // Emulated link latency is applied on the receiving side, exactly
    // like the in-memory network: the frame is already here, but it
    // only becomes visible to recv() once the modeled one-way delay
    // has elapsed.  Nobody blocks, so independent messages overlap.
    auto deliver_at = TagMailbox::Clock::now();
    if (config_.emulate_latency) {
      deliver_at += config_.link_latency;
    }
    inboxes_[static_cast<std::size_t>(sender)]->push(std::move(message),
                                                    deliver_at);
  }
  // Dynamic peers own their EOF: close the dead socket (unless a
  // reconnect already swapped it out) and mark the actor departed so
  // /healthz doesn't report a gone client as a stale link forever.
  const PartyId dynamic_min = dynamic_min_id_.load();
  if (dynamic_min >= 0 && peer_id >= dynamic_min) {
    Peer& peer = *peers_[static_cast<std::size_t>(peer_id)];
    {
      std::lock_guard<std::mutex> lock(peer.send_mu);
      if (peer.fd == fd) {
        ::close(peer.fd);
        peer.fd = -1;
      }
    }
    obs::HealthState::global().note_peer_departed(static_cast<int>(peer_id));
    if (running_.load()) {
      TRUSTDDL_LOG_INFO(kLog) << "party " << self_ << ": dynamic actor "
                              << peer_id << " disconnected";
    }
  }
}

Endpoint TcpTransport::endpoint(PartyId id) {
  TRUSTDDL_REQUIRE(id == self_,
                   "TcpTransport only serves its own party's endpoint");
  return make_endpoint(id);
}

void TcpTransport::send(Message message) {
  TRUSTDDL_REQUIRE(message.sender == self_,
                   "TcpTransport can only send as its own party");
  TRUSTDDL_REQUIRE(message.receiver >= 0 &&
                       message.receiver < config_.num_parties &&
                       message.receiver != self_,
                   "send: receiver out of range");
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    auto& link = link_metrics_[static_cast<std::size_t>(self_)]
                              [static_cast<std::size_t>(message.receiver)];
    link.messages += 1;
    link.bytes += message.wire_size();
  }
  if (obs::metrics_enabled()) {
    const std::string cls = tag_class(message.tag);
    obs::count("net.sent.messages." + cls);
    obs::count("net.sent.bytes." + cls, message.wire_size());
    obs::observe("net.msg_bytes", message.wire_size());
  }

  FaultDecision decision;
  {
    std::lock_guard<std::mutex> lock(injector_mu_);
    if (injector_) {
      decision = injector_->on_message(message);
    }
  }
  if (decision.drop) {
    return;  // metered but never written, like the in-memory network
  }
  if (decision.corrupt && !message.payload.empty()) {
    message.payload.back() ^= 0xa5;
  }
  if (decision.delay.count() > 0) {
    // Injected delays are a test-only feature; the frame format has no
    // delivery-time field, so the sender sleeps.  Emulated *latency*
    // is never applied here — the wire provides the real thing.
    std::this_thread::sleep_for(decision.delay);
  }

  Peer& peer = *peers_[static_cast<std::size_t>(message.receiver)];
  // Header, tag and length go in one small buffer; the payload goes out
  // from where it lies, and one sendmsg writes both.
  Bytes head(kFrameHeaderLen + message.tag.size() + 8);
  put_u32(head.data(), kMagic);
  put_u32(head.data() + 4, static_cast<std::uint32_t>(self_));
  put_u32(head.data() + 8, static_cast<std::uint32_t>(message.tag.size()));
  std::memcpy(head.data() + kFrameHeaderLen, message.tag.data(),
              message.tag.size());
  put_u64(head.data() + kFrameHeaderLen + message.tag.size(),
          message.payload.size());
  iovec frame[2] = {iovec{head.data(), head.size()},
                    iovec{message.payload.data(), message.payload.size()}};

  std::lock_guard<std::mutex> lock(peer.send_mu);
  const PartyId dynamic_min = dynamic_min_id_.load();
  if (dynamic_min >= 0 && message.receiver >= dynamic_min) {
    // Loss-tolerant lane: a departed client must not take its serving
    // party down with an EPIPE — drop the frame and count it.
    if (peer.fd < 0) {
      if (obs::metrics_enabled()) {
        obs::count("net.dropped.peer_gone");
      }
      return;
    }
    try {
      write_all(peer.fd, frame, 2);
    } catch (const ProtocolError&) {
      // Wake the reader with an EOF; its cleanup closes the fd and
      // marks the peer departed.
      ::shutdown(peer.fd, SHUT_RDWR);
      if (obs::metrics_enabled()) {
        obs::count("net.dropped.peer_gone");
      }
    }
    return;
  }
  TRUSTDDL_REQUIRE(peer.fd >= 0, "send: no connection to receiver");
  write_all(peer.fd, frame, 2);
}

Bytes TcpTransport::blocking_recv(PartyId receiver, PartyId from,
                                  const std::string& tag,
                                  std::chrono::milliseconds timeout) {
  TRUSTDDL_REQUIRE(receiver == self_,
                   "TcpTransport can only receive as its own party");
  TRUSTDDL_REQUIRE(from >= 0 && from < config_.num_parties && from != self_,
                   "recv: sender out of range");
  const bool timed = obs::metrics_enabled();
  const std::uint64_t start_us = timed ? obs::now_us() : 0;
  auto payload = inboxes_[static_cast<std::size_t>(from)]->recv(tag, timeout);
  if (timed) {
    obs::observe("net.recv_wait_us", obs::now_us() - start_us);
  }
  if (!payload) {
    if (inboxes_[static_cast<std::size_t>(from)]->closed()) {
      throw_recv_closed(receiver, from, tag);
    }
    throw_recv_timeout(receiver, from, tag);
  }
  return std::move(*payload);
}

bool TcpTransport::probe(PartyId receiver, PartyId from,
                         const std::string& tag, Bytes& out) {
  TRUSTDDL_REQUIRE(receiver == self_,
                   "TcpTransport can only receive as its own party");
  TagMailbox& inbox = *inboxes_[static_cast<std::size_t>(from)];
  if (inbox.try_recv(tag, out)) {
    return true;
  }
  if (inbox.closed()) {
    throw_recv_closed(receiver, from, tag);
  }
  return false;
}

void TcpTransport::set_fault_injector(
    std::shared_ptr<FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(injector_mu_);
  injector_ = std::move(injector);
}

TrafficSnapshot TcpTransport::traffic() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  TrafficSnapshot snapshot;
  snapshot.links = link_metrics_;
  // The matrix holds both this party's sends (row self_) and its
  // receipts (column self_); the totals count each message once — the
  // sender row only — matching the in-memory network's semantics.
  // Receipt cells stay in `links` so callers can verify delivery.
  for (const auto& link : link_metrics_[static_cast<std::size_t>(self_)]) {
    snapshot.total_messages += link.messages;
    snapshot.total_bytes += link.bytes;
  }
  return snapshot;
}

void TcpTransport::reset_traffic() {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (auto& row : link_metrics_) {
    for (auto& link : row) {
      link = LinkMetrics{};
    }
  }
}

void TcpTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
  }
  running_.store(false);
  // Shutting down the sockets wakes every reader blocked in recv();
  // fds are closed only after the join so no reader touches a reused
  // descriptor.  The dynamic acceptor is reaped first so no new links
  // install while the peer table is being torn down.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  for (auto& peer : peers_) {
    // send_mu serializes against a dynamic reader's EOF cleanup
    // closing (and -1-ing) the same fd concurrently.
    std::lock_guard<std::mutex> lock(peer->send_mu);
    if (peer->fd >= 0) {
      ::shutdown(peer->fd, SHUT_RDWR);
    }
  }
  for (auto& peer : peers_) {
    if (peer->reader.joinable()) {
      peer->reader.join();
    }
    std::lock_guard<std::mutex> lock(peer->send_mu);
    close_quietly(peer->fd);
  }
  close_quietly(listen_fd_);
  // No frame can arrive any more: receivers still waiting fail at once.
  for (auto& inbox : inboxes_) {
    inbox->close();
  }
}

TcpFabric::TcpFabric(NetworkConfig config) : config_(config) {
  const auto n = static_cast<std::size_t>(config_.num_parties);
  transports_.reserve(n);
  std::vector<std::string> addresses(n);
  for (std::size_t id = 0; id < n; ++id) {
    transports_.push_back(std::make_unique<TcpTransport>(
        static_cast<PartyId>(id), "127.0.0.1:0", config_));
    addresses[id] =
        "127.0.0.1:" + std::to_string(transports_[id]->bound_port());
  }
  // The rendezvous blocks until the mesh is up, so every party must
  // run it concurrently.
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      try {
        transports_[id]->connect(addresses);
      } catch (...) {
        errors[id] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

TcpFabric::~TcpFabric() {
  for (auto& transport : transports_) {
    transport->shutdown();
  }
}

void TcpFabric::send(Message message) {
  transport(message.sender).send(std::move(message));
}

Bytes TcpFabric::blocking_recv(PartyId receiver, PartyId from,
                               const std::string& tag,
                               std::chrono::milliseconds timeout) {
  return transport(receiver).blocking_recv(receiver, from, tag, timeout);
}

bool TcpFabric::probe(PartyId receiver, PartyId from, const std::string& tag,
                      Bytes& out) {
  return transport(receiver).probe(receiver, from, tag, out);
}

void TcpFabric::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  for (auto& transport : transports_) {
    transport->set_fault_injector(injector);
  }
}

TrafficSnapshot TcpFabric::traffic() const {
  const auto n = static_cast<std::size_t>(config_.num_parties);
  TrafficSnapshot snapshot;
  snapshot.links.assign(n, std::vector<LinkMetrics>(n));
  for (std::size_t sender = 0; sender < n; ++sender) {
    snapshot.links[sender] = transports_[sender]->traffic().links[sender];
    for (const auto& link : snapshot.links[sender]) {
      snapshot.total_messages += link.messages;
      snapshot.total_bytes += link.bytes;
    }
  }
  return snapshot;
}

void TcpFabric::reset_traffic() {
  for (auto& transport : transports_) {
    transport->reset_traffic();
  }
}

}  // namespace trustddl::net
