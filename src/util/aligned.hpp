// 64-byte-aligned storage for SoA numeric planes.
//
// std::vector<double>'s default allocator only guarantees 16-byte alignment,
// which makes every other 32-byte SIMD access split a cache line. The SoA
// arenas (core/encoded) and kernel scratch buffers allocate through this
// allocator instead so full-width vector loads of plane data are aligned and
// rows never straddle a destination cache line unnecessarily.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace reghd::util {

inline constexpr std::size_t kCacheLineAlignment = 64;

template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineAlignment}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// AlignedAllocator whose value-less construct() default-initializes, so
/// resize(n) on a vector of scalars allocates without writing a byte. For
/// planes that a parallel writer fills completely: the first touch (page
/// fault and all) then happens in the worker that writes each row, not
/// serially in resize(). Construction with arguments (insert, push_back,
/// assign with a value) is unchanged.
template <typename T>
struct UninitAlignedAllocator : AlignedAllocator<T> {
  UninitAlignedAllocator() noexcept = default;
  template <typename U>
  UninitAlignedAllocator(  // NOLINT(google-explicit-constructor)
      const UninitAlignedAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// std::vector with cache-line-aligned storage.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// AlignedVector whose resize() leaves new scalar elements uninitialized.
template <typename T>
using UninitAlignedVector = std::vector<T, UninitAlignedAllocator<T>>;

}  // namespace reghd::util
