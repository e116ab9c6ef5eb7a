#ifndef SPNET_SPGEMM_NNZ_ESTIMATOR_H_
#define SPNET_SPGEMM_NNZ_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "sparse/csr_matrix.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

/// Knobs of the sampled C-hat estimator. The sampling is a deterministic
/// stride over A's rows (no RNG state): row r is sampled when
/// r % stride == seed % stride, with the stride derived from the target
/// sample size, so the same inputs always produce the same estimate on any
/// thread count.
struct EstimatorOptions {
  /// Fraction of A's rows scanned exactly; in (0, 1].
  double sample_fraction = 0.05;
  /// Never sample fewer rows than this (small matrices converge to exact).
  int64_t min_sample_rows = 64;
  /// Phase of the sampling stride.
  uint64_t seed = 42;
  /// How many of B's heaviest rows are treated as hubs: their contribution
  /// to every C-hat row is summed exactly through a cache-resident value
  /// table, so only the light remainder of each row is estimated. The scan
  /// cost does not depend on this count (the table is indexed, not
  /// searched), so it is set generously: more hubs means tighter row bands
  /// — the light remainder is bounded by the largest non-hub B-row — and
  /// fewer row rescans in the classifier.
  int64_t hub_rows = 4096;
};

/// A Workload built from estimates plus, for every output row, a
/// *guaranteed* band bracketing the exact C-hat population. Only the row
/// side is estimated:
///   * the pair side is exact: a_col_nnz is one histogram pass over A's
///     indices, so a_col_nnz, pair_work and flops equal the exact tier's
///     and carry no band;
///   * on the row side, each row's hub contribution (entries hitting one
///     of B's `hub_rows` heaviest rows) is summed exactly; the m remaining
///     light entries are bracketed by [m * min_rest, m * v_rest], where
///     v_rest bounds every non-hub B-row size from above;
///   * sampled rows of A (and rows with no light entries) are exact, so
///     their row band is a point.
/// Every point estimate lies inside its band, and so does the exact
/// value: the bands are hard bounds, not probabilistic intervals. This is
/// what lets verify::CheckEstimatedClassification be a hard invariant.
struct EstimatedWorkload {
  /// Point estimates in the exact Workload's shape. b_row_nnz, a_col_nnz,
  /// pair_work and flops are exact; row_chat, row_c_est and output_nnz are
  /// estimated (exact where row_exact is set).
  Workload workload;

  /// Guaranteed bounds on row_chat (length = a.rows()).
  std::vector<int64_t> row_chat_lo;
  std::vector<int64_t> row_chat_hi;
  /// 1 where workload.row_chat is exact (sampled, hub-only, or
  /// rescanned by the classifier).
  std::vector<uint8_t> row_exact;

  /// Fraction of the intermediate mass (flops) whose row attribution is
  /// exactly known — full rows for sampled rows, the hub share elsewhere —
  /// in [0, 1]. 1.0 means the "estimate" is exact.
  double confidence = 1.0;
  /// Numerator of `confidence` (denominator is workload.flops, which is
  /// exact). The classifier's row rescans add the mass they convert to
  /// exact here and refresh `confidence` from it.
  int64_t exact_mass = 0;

  int64_t sampled_rows = 0;
};

/// Builds the estimated workload view. Same O(nnz + rows + cols) shape as
/// the exact tier, but with much cheaper passes: the per-row gather of
/// b_row_nnz (a random walk over an O(rows_b) table) and the per-row
/// transcendental merge estimator are replaced, for unsampled rows, by a
/// cache-resident hub-flag lookup and a rational approximation. Sampled
/// rows (deterministic stride) are computed exactly and anchor the
/// confidence measure. Deterministic for any thread count.
EstimatedWorkload BuildWorkloadEstimated(const sparse::CsrMatrix& a,
                                         const sparse::CsrMatrix& b,
                                         const EstimatorOptions& options = {},
                                         ExecContext* ctx = nullptr);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_NNZ_ESTIMATOR_H_
