#include "net/transport.hpp"

#include "common/error.hpp"

namespace trustddl::net {

void TrafficSnapshot::reset() {
  for (auto& row : links) {
    for (auto& cell : row) {
      cell = LinkMetrics{};
    }
  }
  total_messages = 0;
  total_bytes = 0;
}

TrafficSnapshot TrafficSnapshot::diff(const TrafficSnapshot& before) const {
  TrafficSnapshot delta = *this;
  if (before.links.empty()) {
    return delta;
  }
  TRUSTDDL_REQUIRE(before.links.size() == links.size(),
                   "TrafficSnapshot::diff: shape mismatch");
  for (std::size_t i = 0; i < links.size(); ++i) {
    TRUSTDDL_REQUIRE(before.links[i].size() == links[i].size(),
                     "TrafficSnapshot::diff: shape mismatch");
    for (std::size_t j = 0; j < links[i].size(); ++j) {
      delta.links[i][j].messages -= before.links[i][j].messages;
      delta.links[i][j].bytes -= before.links[i][j].bytes;
    }
  }
  delta.total_messages -= before.total_messages;
  delta.total_bytes -= before.total_bytes;
  return delta;
}

int Endpoint::num_parties() const {
  TRUSTDDL_ASSERT(transport_ != nullptr);
  return transport_->num_parties();
}

void Endpoint::send(PartyId to, const std::string& tag, Bytes payload) const {
  TRUSTDDL_ASSERT(transport_ != nullptr);
  TRUSTDDL_REQUIRE(to >= 0 && to < transport_->num_parties(),
                   "send: receiver out of range");
  TRUSTDDL_REQUIRE(to != id_, "send: party cannot message itself");
  Message message;
  message.sender = id_;
  message.receiver = to;
  message.tag = tag;
  message.payload = std::move(payload);
  transport_->send(std::move(message));
}

Bytes Endpoint::recv(PartyId from, const std::string& tag) const {
  TRUSTDDL_ASSERT(transport_ != nullptr);
  return transport_->blocking_recv(id_, from, tag,
                                   transport_->default_recv_timeout());
}

Bytes Endpoint::recv(PartyId from, const std::string& tag,
                     std::chrono::milliseconds timeout) const {
  TRUSTDDL_ASSERT(transport_ != nullptr);
  return transport_->blocking_recv(id_, from, tag, timeout);
}

bool Endpoint::try_recv(PartyId from, const std::string& tag,
                        Bytes& out) const {
  TRUSTDDL_ASSERT(transport_ != nullptr);
  return transport_->probe(id_, from, tag, out);
}

Endpoint Transport::endpoint(PartyId id) {
  TRUSTDDL_REQUIRE(id >= 0 && id < num_parties(),
                   "endpoint id out of range");
  return make_endpoint(id);
}

void throw_recv_timeout(PartyId receiver, PartyId from,
                        const std::string& tag) {
  throw TimeoutError("recv timeout: party " + std::to_string(receiver) +
                     " waiting for '" + tag + "' from party " +
                     std::to_string(from));
}

void throw_recv_closed(PartyId receiver, PartyId from,
                       const std::string& tag) {
  throw ProtocolError("recv on a closed transport: party " +
                      std::to_string(receiver) + " waiting for '" + tag +
                      "' from party " + std::to_string(from));
}

std::string tag_class(const std::string& tag) {
  const std::size_t last_slash = tag.rfind('/');
  if (last_slash == std::string::npos) {
    return tag;
  }
  const std::string last = tag.substr(last_slash + 1);
  const bool numeric =
      !last.empty() &&
      last.find_first_not_of("0123456789") == std::string::npos;
  if (!numeric) {
    return last;
  }
  return tag.substr(0, tag.find('/'));
}

}  // namespace trustddl::net
