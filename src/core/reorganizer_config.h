#ifndef SPNET_CORE_REORGANIZER_CONFIG_H_
#define SPNET_CORE_REORGANIZER_CONFIG_H_

#include <cstdint>

#include "common/status.h"

namespace spnet {
namespace core {

/// Tuning knobs of the Block Reorganizer (Section IV of the paper). The
/// defaults reproduce the paper's configuration; the per-technique enables
/// drive the Figure 10 ablation and the factor overrides drive the
/// Figure 11/14 sweeps.
struct ReorganizerConfig {
  bool enable_splitting = true;
  bool enable_gathering = true;
  bool enable_limiting = true;

  /// Dominator threshold multiplier: pairs producing more than
  /// alpha * nnz(C-hat) / #nonzero-pairs intermediate elements are
  /// dominators. (The paper writes the threshold as
  /// nnz(C-hat)/(#blocks * alpha) but describes raising alpha to *avoid*
  /// selecting too many dominators, i.e. alpha multiplies the mean; we
  /// follow the description.) Higher = fewer dominators.
  double alpha = 32.0;

  /// Merge-limiting threshold multiplier: output rows with more than
  /// beta * nnz(C-hat) / #nonzero-rows intermediate elements get the
  /// residency-limited merge kernel. Paper value: 10.
  double beta = 10.0;

  /// Fixed splitting factor (power of two) for every dominator; 0 selects
  /// the heuristic (split past the SM count, keep fragments useful). The
  /// Figure 11/12 sweeps set 1..64.
  int splitting_factor_override = 0;

  /// Extra shared memory (bytes) allocated to the limited merge kernel —
  /// the paper's "limiting factor", default 4 * 6144. The Figure 14 sweep
  /// sets 0..7*6144.
  int64_t limiting_extra_shmem = 4 * 6144;

  /// Thread block size for expansion and merge kernels.
  int block_size = 256;

  /// Checks the knobs are usable before an algorithm is built around
  /// them: alpha/beta strictly positive, splitting_factor_override zero
  /// (heuristic) or a power of two, limiting_extra_shmem non-negative,
  /// block_size a positive multiple of the 32-lane warp.
  /// MakeBlockReorganizer and AutoTune refuse invalid configs with this
  /// Status instead of silently running with nonsense thresholds.
  Status Validate() const;

  /// 64-bit hash over every knob, deterministic across runs. Part of the
  /// engine::PlanCache key: two reorganizer instances with different knobs
  /// must never share a cached plan.
  uint64_t Fingerprint() const;
};

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_REORGANIZER_CONFIG_H_
