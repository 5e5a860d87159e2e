#include "numeric/serde.hpp"

#include <limits>

namespace trustddl {

void write_tensor(ByteWriter& writer, const RingTensor& tensor) {
  writer.write_u64(tensor.rank());
  for (std::size_t dim : tensor.shape()) {
    writer.write_u64(dim);
  }
  writer.write_u64_span(tensor.data(), tensor.size());
}

std::size_t tensor_wire_size(const Shape& shape) {
  return 8 * (1 + shape.size() + shape_size(shape));
}

RingTensor read_tensor(ByteReader& reader) {
  const std::uint64_t rank = reader.read_u64();
  if (rank > 8) {
    throw SerializationError("tensor rank too large: " + std::to_string(rank));
  }
  Shape shape(rank);
  std::size_t count = rank == 0 ? 0 : 1;
  for (auto& dim : shape) {
    dim = reader.read_u64();
    if (dim != 0 && count > std::numeric_limits<std::size_t>::max() / dim) {
      throw SerializationError("tensor element count overflows");
    }
    count *= dim;
  }
  if (count > reader.remaining() / 8) {
    throw SerializationError("tensor payload exceeds message size");
  }
  AlignedVector<std::uint64_t> data(count);
  reader.read_u64_span(data.data(), count);
  return RingTensor(std::move(shape), std::move(data));
}

Bytes tensor_to_bytes(const RingTensor& tensor) {
  ByteWriter writer;
  writer.reserve(tensor_wire_size(tensor.shape()));
  write_tensor(writer, tensor);
  return writer.take();
}

RingTensor tensor_from_bytes(const Bytes& data) {
  ByteReader reader(data);
  RingTensor tensor = read_tensor(reader);
  if (!reader.at_end()) {
    throw SerializationError("trailing bytes after tensor payload");
  }
  return tensor;
}

}  // namespace trustddl
