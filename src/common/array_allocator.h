#ifndef SPNET_COMMON_ARRAY_ALLOCATOR_H_
#define SPNET_COMMON_ARRAY_ALLOCATOR_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/mutex.h"

namespace spnet {

/// A huge page. Blocks of at least this size are mapped on their own,
/// aligned to it, advised for huge pages, and may be kept for reuse.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Owns the large blocks of one element type and keeps the most recently
/// freed one for the next large request, so a caller that allocates and
/// frees a same-sized output in a loop maps and faults it in only once.
///
/// - When two blocks compete for the slot, the larger one stays and the
///   other is unmapped.
/// - A request the kept block cannot hold unmaps that block before it maps
///   its own, so the slot never holds memory alongside a new block.
/// - A request the kept block can hold takes it, whatever its size; the
///   block comes back at its real size.
///
/// The kept block costs resident memory between uses: every page a
/// borrower touched and did not release. Thread-safe.
class BlockSlot {
 public:
  BlockSlot() = default;
  ~BlockSlot();
  BlockSlot(const BlockSlot&) = delete;
  BlockSlot& operator=(const BlockSlot&) = delete;

  /// A block of at least `bytes` (>= kHugePageBytes), aligned to a huge
  /// page. Its contents are whatever its last user left, or zero when it
  /// is newly mapped. Throws std::bad_alloc when the mapping fails.
  void* Allocate(size_t bytes) EXCLUDES(mu_);

  /// Takes back a block that Allocate(bytes) returned.
  void Deallocate(void* data, size_t bytes) EXCLUDES(mu_);

  /// Real size of the kept block; 0 when the slot is empty.
  size_t kept_bytes() const EXCLUDES(mu_);
  /// Bytes mapped through this slot and not yet unmapped, kept block
  /// included, and the most that ever were at once.
  size_t mapped_bytes() const EXCLUDES(mu_);
  size_t peak_mapped_bytes() const EXCLUDES(mu_);

 private:
  struct Block {
    void* data = nullptr;
    size_t bytes = 0;
  };

  /// Unmaps `block` (if any) and stops counting it as mapped.
  void Unmap(Block block) EXCLUDES(mu_);

  mutable Mutex mu_;
  Block kept_ GUARDED_BY(mu_);
  /// Blocks handed to a request smaller than their real size.
  std::vector<Block> lent_ GUARDED_BY(mu_);
  size_t mapped_ GUARDED_BY(mu_) = 0;
  size_t peak_mapped_ GUARDED_BY(mu_) = 0;
};

/// The slot of element type T. Never destroyed, so arrays that outlive
/// static destruction can still return their blocks.
template <typename T>
BlockSlot& BlockSlotFor() {
  // spnet-lint: allow(raw-new-delete) — intentionally leaked singleton.
  static BlockSlot* const slot = new BlockSlot;
  return *slot;
}

/// Allocator of the large numeric arrays (a CSR matrix's indices and
/// values). Construction with no arguments default-initializes, so
/// `resize` and the size constructor of a trivial type write nothing: a
/// builder must write every element it keeps. Requests of at least
/// kHugePageBytes go through BlockSlotFor<T>(); smaller ones through
/// std::allocator.
template <typename T>
class ArrayAllocator {
 public:
  using value_type = T;

  ArrayAllocator() = default;
  template <typename U>
  ArrayAllocator(const ArrayAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    if (n * sizeof(T) < kHugePageBytes) {
      return std::allocator<T>().allocate(n);
    }
    return static_cast<T*>(BlockSlotFor<T>().Allocate(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) noexcept {
    if (n * sizeof(T) < kHugePageBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      BlockSlotFor<T>().Deallocate(p, n * sizeof(T));
    }
  }

  /// Value-free construction default-initializes. Construction with
  /// arguments is left to std::allocator_traits.
  template <typename U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    std::uninitialized_default_construct_n(p, 1);
  }

  friend bool operator==(const ArrayAllocator&, const ArrayAllocator&) {
    return true;
  }
};

#if defined(__SANITIZE_ADDRESS__)
#define SPNET_ADDRESS_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPNET_ADDRESS_SANITIZER 1
#endif
#endif

/// The large numeric arrays. Under AddressSanitizer they are plain
/// std::vector: libstdc++ annotates spare capacity for container-overflow
/// checks only in std::allocator vectors, and a kept block would bypass
/// ASan's quarantine of freed memory. There they value-initialize and keep
/// no block.
#if defined(SPNET_ADDRESS_SANITIZER)
template <typename T>
using Array = std::vector<T>;
inline constexpr bool kArraysKeepBlocks = false;
#else
template <typename T>
using Array = std::vector<T, ArrayAllocator<T>>;
inline constexpr bool kArraysKeepBlocks = true;
#endif

/// Returns to the system the pages from `end` up to the next huge-page
/// boundary, inside a block BlockSlot mapped. Their contents are lost.
void ReleaseToHugePageBoundary(const void* end);

/// Called once an array holds its final elements. A huge page faults in
/// whole, so the last one an array touches would keep up to 2 MiB past
/// its size resident; this hands those pages back. A later write past
/// the size faults them in again.
template <typename T>
void ReleaseUnusedTail(const Array<T>& array) {
  if (kArraysKeepBlocks && array.capacity() * sizeof(T) >= kHugePageBytes) {
    ReleaseToHugePageBoundary(array.data() + array.size());
  }
}

}  // namespace spnet

#endif  // SPNET_COMMON_ARRAY_ALLOCATOR_H_
