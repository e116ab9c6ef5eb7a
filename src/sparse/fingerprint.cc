#include "sparse/fingerprint.h"

#include <cstddef>
#include <vector>

namespace spnet {
namespace sparse {

namespace {

// The 64-bit primes, round and avalanche of xxHash64, applied to whole
// element values rather than to bytes.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kSeed = 0x27D4EB2F165667C5ULL;

constexpr uint64_t Rotl(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

constexpr uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kPrime2, 31) * kPrime1;
}

/// Folds one word into a serial state.
constexpr uint64_t Mix(uint64_t h, uint64_t word) {
  return Rotl(h ^ Round(0, word), 27) * kPrime1 + kPrime4;
}

constexpr uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// Folds an array into `h`: its length first, so {[1,2],[3]} and
/// {[1],[2,3]} stay distinct when arrays are hashed back to back, then
/// its elements as 64-bit words over four independent lanes, so the
/// multiply chains overlap. Hashing values, not memory, keeps the result
/// independent of host endianness and of the element type's layout.
template <typename T>
uint64_t MixArray(uint64_t h, const std::vector<T>& values) {
  const size_t n = values.size();
  h = Mix(h, static_cast<uint64_t>(n));
  uint64_t lane0 = h + kPrime1 + kPrime2;
  uint64_t lane1 = h + kPrime2;
  uint64_t lane2 = h;
  uint64_t lane3 = h - kPrime1;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane0 = Round(lane0, static_cast<uint64_t>(values[i]));
    lane1 = Round(lane1, static_cast<uint64_t>(values[i + 1]));
    lane2 = Round(lane2, static_cast<uint64_t>(values[i + 2]));
    lane3 = Round(lane3, static_cast<uint64_t>(values[i + 3]));
  }
  h = Rotl(lane0, 1) + Rotl(lane1, 7) + Rotl(lane2, 12) + Rotl(lane3, 18);
  for (; i < n; ++i) h = Mix(h, static_cast<uint64_t>(values[i]));
  return h;
}

}  // namespace

uint64_t StructuralFingerprint(const CsrMatrix& m) {
  uint64_t h = Mix(kSeed, static_cast<uint64_t>(m.rows()));
  h = Mix(h, static_cast<uint64_t>(m.cols()));
  // A default-constructed matrix stores an empty ptr array while the
  // builders emit rows()+1 zeros for the same logical structure; hash the
  // canonical form so the two spellings of an empty matrix share a key.
  if (m.ptr().empty()) {
    h = MixArray(h, std::vector<Offset>(static_cast<size_t>(m.rows()) + 1));
  } else {
    h = MixArray(h, m.ptr());
  }
  h = MixArray(h, m.indices());
  return Avalanche(h);
}

uint64_t CombineFingerprints(uint64_t a, uint64_t b) {
  return Avalanche(Mix(Mix(kSeed, a), b));
}

}  // namespace sparse
}  // namespace spnet
