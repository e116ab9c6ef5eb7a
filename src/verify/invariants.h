#ifndef SPNET_VERIFY_INVARIANTS_H_
#define SPNET_VERIFY_INVARIANTS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/b_gathering.h"
#include "core/b_splitting.h"
#include "core/reorganizer_config.h"
#include "core/workload_classifier.h"
#include "sparse/csr_matrix.h"
#include "spgemm/plan.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace verify {

/// Structural validators for the Block Reorganizer's intermediate plans.
/// Each checker re-derives the property the pass is supposed to guarantee
/// from first principles (never by re-running the pass) and reports the
/// first violation as FailedPrecondition with enough context to debug it.

/// The classification partitions exactly the nonzero pairs: every pair
/// with pair_work > 0 lands in exactly one of dominators / low performers
/// / normals, bin membership matches the documented rules, both
/// thresholds are >= 1, and limited_rows is exactly the set of output
/// rows whose C-hat population exceeds the limiting threshold.
[[nodiscard]] Status CheckClassification(const spgemm::Workload& workload,
                           const core::Classification& classes);

/// The split plan covers every dominator exactly once; the mapper lists
/// each pair's fragments contiguously, a power of two of them, and their
/// column bounds carve [0, col_nnz) into non-empty contiguous fragments
/// that reproduce the original pair's product count exactly (sum of
/// fragment_len * row_nnz == pair_work).
[[nodiscard]] Status CheckSplitPlan(const spgemm::Workload& workload,
                      const std::vector<sparse::Index>& dominators,
                      const core::SplitPlan& split);

/// Gathered blocks plus ungathered pairs partition the low-performer set
/// exactly; the block offsets carve the flat pair array; every combined
/// block holds pairs of one power-of-two lane quota (micro_threads ==
/// NextPow2(effective threads) <= 32), respects the block capacity, and
/// launches a whole number of warps (the lane count rounds to a multiple
/// of 32). Read block after block, the pairs of each quota run a_col_nnz
/// non-increasing, with ascending pairs on ties.
[[nodiscard]] Status CheckGatherPlan(const spgemm::Workload& workload,
                       const std::vector<sparse::Index>& low_performers,
                       const core::GatherPlan& gather, int block_size);

/// The merge options reflect the classification: when limiting is active
/// and limited rows exist, the options carry the classifier's threshold
/// and the configured extra shared memory; otherwise limiting is off
/// (threshold <= 0).
[[nodiscard]] Status CheckLimitedMergeOptions(const core::Classification& classes,
                                const core::ReorganizerConfig& config,
                                const spgemm::MergeOptions& options);

/// Plan-level sanity: flops match the workload, and every thread block
/// launches whole warps with consistent per-block accounting
/// (effective <= launched threads, crit <= warp issue ops, non-negative
/// traffic).
[[nodiscard]] Status CheckPlanStructure(const spgemm::SpGemmPlan& plan,
                          int64_t expected_flops);

/// Runs the full invariant suite for one configuration on one A*B: the
/// classification, split and gather plans of the reorganizer's Prepare
/// (the ones Plan dispatches; each present exactly when its technique is
/// enabled and its bin is non-empty), the limiting merge options, the
/// built SpGemmPlan, and finally Compute whose CSR output must Validate()
/// and match the reference oracle.
[[nodiscard]] Status VerifyReorganizerInvariants(const sparse::CsrMatrix& a,
                                   const sparse::CsrMatrix& b,
                                   const core::ReorganizerConfig& config);

}  // namespace verify
}  // namespace spnet

#endif  // SPNET_VERIFY_INVARIANTS_H_
