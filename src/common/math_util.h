#ifndef SPNET_COMMON_MATH_UTIL_H_
#define SPNET_COMMON_MATH_UTIL_H_

#include <bit>
#include <cstdint>

namespace spnet {

/// ceil(a / b) for positive integers.
constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Smallest power of two >= v (v >= 1).
constexpr int64_t NextPow2(int64_t v) {
  return v <= 1 ? 1
                : static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(v)));
}

/// Largest power of two <= v (v >= 1).
constexpr int64_t PrevPow2(int64_t v) {
  return v <= 1 ? 1
                : static_cast<int64_t>(
                      std::bit_floor(static_cast<uint64_t>(v)));
}

/// floor(log2(v)) for v >= 1.
constexpr int Log2Floor(int64_t v) {
  if (v <= 1) return 0;
  return static_cast<int>(std::bit_width(static_cast<uint64_t>(v))) - 1;
}

/// True if v is a power of two (v >= 1).
constexpr bool IsPow2(int64_t v) { return v >= 1 && (v & (v - 1)) == 0; }

}  // namespace spnet

#endif  // SPNET_COMMON_MATH_UTIL_H_
