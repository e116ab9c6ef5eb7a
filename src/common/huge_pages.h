#ifndef SPNET_COMMON_HUGE_PAGES_H_
#define SPNET_COMMON_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace spnet {

/// Advises the kernel to back the 2 MiB-aligned interior of
/// [data, data + bytes) with transparent huge pages, so a buffer written
/// front to back faults once per 2 MiB instead of once per 4 KiB. A no-op
/// for a null pointer, a range holding no aligned 2 MiB page, or a platform
/// without MADV_HUGEPAGE. Advice only: the contents never change.
inline void AdviseHugePages([[maybe_unused]] const void* data,
                            [[maybe_unused]] size_t bytes) {
#if defined(MADV_HUGEPAGE)
  constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t last = (begin + bytes) & ~(kHugePage - 1);
  if (data != nullptr && first < last) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#endif
}

}  // namespace spnet

#endif  // SPNET_COMMON_HUGE_PAGES_H_
