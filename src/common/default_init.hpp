// Allocator adaptor that default-initializes.
//
// std::vector value-initializes the elements of a sized construction
// or a resize(), which for bytes and ring words means a memset of
// storage the caller is about to overwrite: a received payload, a
// decoded tensor, a dealt share.  With DefaultInit those elements are
// left unwritten; construction with a value (`Bytes(n, 0)`, push_back,
// copies) is unchanged.
//
// Builds without NDEBUG fill every fresh allocation with
// kUnwrittenByte, so code that reads storage nobody wrote sees a
// fixed, implausible pattern instead of a convenient zero, and fails
// the same way on every run (the Debug sanitizer job runs the suite
// this way).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace trustddl {

inline constexpr unsigned char kUnwrittenByte = 0xA5;

template <typename Base>
struct DefaultInit : Base {
  using value_type = typename Base::value_type;

  template <typename U>
  struct rebind {
    using other = DefaultInit<
        typename std::allocator_traits<Base>::template rebind_alloc<U>>;
  };

  DefaultInit() noexcept = default;
  template <typename Other>
  DefaultInit(const DefaultInit<Other>&) noexcept {}

  value_type* allocate(std::size_t count) {
    value_type* storage = Base::allocate(count);
#ifndef NDEBUG
    std::memset(static_cast<void*>(storage), kUnwrittenByte,
                count * sizeof(value_type));
#endif
    return storage;
  }

  template <typename U>
  void construct(U* where) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(where)) U;
  }
  template <typename U, typename... Args>
  void construct(U* where, Args&&... args) {
    ::new (static_cast<void*>(where)) U(std::forward<Args>(args)...);
  }

  // Stateless: any two instances free each other's storage.
  template <typename Other>
  bool operator==(const DefaultInit<Other>&) const noexcept {
    return true;
  }
};

}  // namespace trustddl
