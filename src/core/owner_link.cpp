#include "core/owner_link.hpp"

#include "core/roles.hpp"
#include "mpc/share_serde.hpp"
#include "numeric/serde.hpp"

namespace trustddl::core {

namespace {

Bytes fill_request(const mpc::TripleKey& key, std::uint64_t start,
                   std::size_t count) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kBatchFill));
  request.write_u8(static_cast<std::uint8_t>(key.kind));
  request.write_u64(key.dims.size());
  for (std::size_t dim : key.dims) {
    request.write_u64(dim);
  }
  request.write_u64(start);
  request.write_u32(static_cast<std::uint32_t>(count));
  return request.take();
}

}  // namespace

std::uint64_t OwnerLink::unary_send(Bytes request) {
  const std::uint64_t id = unary_counter_++;
  endpoint_.send(kModelOwner, "req/" + std::to_string(id),
                 std::move(request));
  return id;
}

Bytes OwnerLink::unary_recv(std::uint64_t id) {
  return endpoint_.recv(kModelOwner, "rsp/" + std::to_string(id),
                        response_timeout_);
}

Bytes OwnerLink::collective_roundtrip(Bytes request) {
  const std::uint64_t id = collective_counter_++;
  endpoint_.send(kModelOwner, "col/" + std::to_string(id),
                 std::move(request));
  return endpoint_.recv(kModelOwner, "crsp/" + std::to_string(id),
                        response_timeout_);
}

void OwnerLink::collective_send(Bytes request) {
  const std::uint64_t id = collective_counter_++;
  endpoint_.send(kModelOwner, "col/" + std::to_string(id),
                 std::move(request));
}

mpc::FillTicket OwnerLink::send_fill(const mpc::FillRange& range) {
  return mpc::FillTicket{
      range, unary_send(fill_request(range.key, range.start, range.count))};
}

mpc::MaterialBatch OwnerLink::receive_fill(const mpc::FillTicket& ticket) {
  return mpc::read_fill_response(unary_recv(ticket.id),
                                 ticket.range.key.kind, ticket.range.count);
}

mpc::PartyShare OwnerLink::softmax_forward(const mpc::PartyShare& logits) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kSoftmaxForward));
  mpc::write_party_share(request, logits);
  ByteReader response(collective_roundtrip(request.take()));
  return mpc::read_party_share(response);
}

mpc::PartyShare OwnerLink::softmax_backward(
    const mpc::PartyShare& probabilities, const mpc::PartyShare& grad) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kSoftmaxBackward));
  mpc::write_party_share(request, probabilities);
  mpc::write_party_share(request, grad);
  ByteReader response(collective_roundtrip(request.take()));
  return mpc::read_party_share(response);
}

void OwnerLink::reveal(const std::string& key, const mpc::PartyShare& share) {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kReveal));
  request.write_string(key);
  mpc::write_party_share(request, share);
  collective_send(request.take());
}

void OwnerLink::stop() {
  ByteWriter request;
  request.write_u8(static_cast<std::uint8_t>(OwnerOp::kStop));
  collective_send(request.take());
}

}  // namespace trustddl::core
