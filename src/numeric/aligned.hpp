// 64-byte-aligned storage for tensor data.
//
// The SIMD kernels (numeric/simd.hpp) issue 32-byte vector loads; on
// the Xeons this repo benches on, a 32-byte load that straddles a
// cache line costs roughly twice a contained one, and glibc malloc
// only guarantees 16-byte alignment — which put every other vector
// load on a line split and capped the elementwise kernels near their
// scalar throughput.  Aligning every tensor buffer to a cache line
// removes the splits (and keeps one row panel from sharing lines with
// its neighbour under the thread pool).
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "common/default_init.hpp"

namespace trustddl {

/// Minimal C++17 allocator handing out 64-byte-aligned blocks.
template <typename T>
struct AlignedAllocator {
  static constexpr std::size_t kAlignment = 64;
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) {
    return static_cast<T*>(
        ::operator new(count * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* pointer, std::size_t) noexcept {
    ::operator delete(pointer, std::align_val_t{kAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// The tensor storage container: a std::vector whose data() is
/// cache-line aligned and whose sized construction leaves elements
/// unwritten (default_init.hpp); Tensor(shape) fills explicitly.
template <typename T>
using AlignedVector = std::vector<T, DefaultInit<AlignedAllocator<T>>>;

}  // namespace trustddl
