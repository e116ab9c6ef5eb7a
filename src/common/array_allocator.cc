#include "common/array_allocator.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <utility>

namespace spnet {

namespace {

uintptr_t RoundUpToHugePage(uintptr_t n) {
  return (n + kHugePageBytes - 1) & ~uintptr_t{kHugePageBytes - 1};
}

/// Maps `bytes` (a multiple of kHugePageBytes) at a huge-page boundary: one
/// page more is mapped, and the unaligned head and the tail are unmapped.
void* MapAligned(size_t bytes) {
  void* raw = mmap(nullptr, bytes + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t begin = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = RoundUpToHugePage(begin);
  const size_t head = aligned - begin;
  if (head > 0) munmap(raw, head);
  const size_t tail = kHugePageBytes - head;
  if (tail > 0) munmap(reinterpret_cast<void*>(aligned + bytes), tail);
  void* data = reinterpret_cast<void*>(aligned);
#if defined(MADV_HUGEPAGE)
  madvise(data, bytes, MADV_HUGEPAGE);
#endif
  return data;
}

}  // namespace

void ReleaseToHugePageBoundary(const void* end) {
  const uintptr_t first = (reinterpret_cast<uintptr_t>(end) + 4095) &
                          ~uintptr_t{4095};
  const uintptr_t last = RoundUpToHugePage(first);
  if (first < last) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
  }
}

BlockSlot::~BlockSlot() {
  if (kept_.data != nullptr) munmap(kept_.data, kept_.bytes);
}

void* BlockSlot::Allocate(size_t bytes) {
  const size_t want = RoundUpToHugePage(bytes);
  Block stale;
  {
    MutexLock lock(&mu_);
    if (kept_.bytes >= want) {
      const Block lent = std::exchange(kept_, Block{});
      if (lent.bytes > want) lent_.push_back(lent);
      return lent.data;
    }
    stale = std::exchange(kept_, Block{});
  }
  // Unmapped before the new block is mapped: the slot never adds a block's
  // worth of memory to a request it cannot serve.
  Unmap(stale);
  void* data = MapAligned(want);
  MutexLock lock(&mu_);
  mapped_ += want;
  peak_mapped_ = std::max(peak_mapped_, mapped_);
  return data;
}

void BlockSlot::Deallocate(void* data, size_t bytes) {
  Block back{data, RoundUpToHugePage(bytes)};
  Block loser;
  {
    MutexLock lock(&mu_);
    const auto it =
        std::find_if(lent_.begin(), lent_.end(),
                     [data](const Block& b) { return b.data == data; });
    if (it != lent_.end()) {
      back = *it;
      lent_.erase(it);
    }
    loser = back.bytes >= kept_.bytes ? std::exchange(kept_, back) : back;
  }
  Unmap(loser);
}

void BlockSlot::Unmap(Block block) {
  if (block.data == nullptr) return;
  munmap(block.data, block.bytes);
  MutexLock lock(&mu_);
  mapped_ -= block.bytes;
}

size_t BlockSlot::kept_bytes() const {
  MutexLock lock(&mu_);
  return kept_.bytes;
}

size_t BlockSlot::mapped_bytes() const {
  MutexLock lock(&mu_);
  return mapped_;
}

size_t BlockSlot::peak_mapped_bytes() const {
  MutexLock lock(&mu_);
  return peak_mapped_;
}

}  // namespace spnet
