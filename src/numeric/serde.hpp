// Tensor serialization for network messages and commitment hashing.
#pragma once

#include "common/bytes.hpp"
#include "numeric/tensor.hpp"

namespace trustddl {

/// Append a ring tensor (shape + elements) to a writer.
void write_tensor(ByteWriter& writer, const RingTensor& tensor);

/// Bytes write_tensor appends for a tensor of `shape`: its rank, dims
/// and values, 8 bytes each.
std::size_t tensor_wire_size(const Shape& shape);

/// Read a ring tensor previously written with write_tensor, into
/// storage that is not zero-filled first.  Throws SerializationError,
/// before allocating, on a rank above 8 or a shape whose element count
/// overflows or exceeds the bytes left.
RingTensor read_tensor(ByteReader& reader);

/// Serialize a ring tensor to a standalone byte vector.
Bytes tensor_to_bytes(const RingTensor& tensor);

/// Deserialize a standalone byte vector back into a ring tensor.
RingTensor tensor_from_bytes(const Bytes& data);

}  // namespace trustddl
