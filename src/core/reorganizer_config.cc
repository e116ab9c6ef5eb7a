#include "core/reorganizer_config.h"

#include <cstring>
#include <string>

#include "common/math_util.h"

namespace spnet {
namespace core {

namespace {

uint64_t FnvMix(uint64_t h, uint64_t bits) {
  constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvMixDouble(uint64_t h, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMix(h, bits);
}

}  // namespace

Status ReorganizerConfig::Validate() const {
  if (!(alpha > 0.0)) {
    return Status::InvalidArgument(
        "reorganizer alpha must be > 0, got " + std::to_string(alpha));
  }
  if (!(beta > 0.0)) {
    return Status::InvalidArgument("reorganizer beta must be > 0, got " +
                                   std::to_string(beta));
  }
  if (splitting_factor_override < 0 ||
      (splitting_factor_override > 0 &&
       !IsPow2(static_cast<int64_t>(splitting_factor_override)))) {
    return Status::InvalidArgument(
        "splitting_factor_override must be 0 (heuristic) or a power of two, "
        "got " +
        std::to_string(splitting_factor_override));
  }
  if (limiting_extra_shmem < 0) {
    return Status::InvalidArgument(
        "limiting_extra_shmem must be >= 0, got " +
        std::to_string(limiting_extra_shmem));
  }
  if (block_size <= 0 || block_size % 32 != 0) {
    return Status::InvalidArgument(
        "block_size must be a positive multiple of 32, got " +
        std::to_string(block_size));
  }
  return Status::Ok();
}

uint64_t ReorganizerConfig::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  h = FnvMix(h, (enable_splitting ? 1ULL : 0ULL) |
                    (enable_gathering ? 2ULL : 0ULL) |
                    (enable_limiting ? 4ULL : 0ULL));
  h = FnvMixDouble(h, alpha);
  h = FnvMixDouble(h, beta);
  h = FnvMix(h, static_cast<uint64_t>(splitting_factor_override));
  h = FnvMix(h, static_cast<uint64_t>(limiting_extra_shmem));
  h = FnvMix(h, static_cast<uint64_t>(block_size));
  return h;
}

}  // namespace core
}  // namespace spnet
