#ifndef SPNET_CORE_WORKLOAD_CLASSIFIER_H_
#define SPNET_CORE_WORKLOAD_CLASSIFIER_H_

#include <cstdint>
#include <vector>

#include "core/reorganizer_config.h"
#include "sparse/types.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {
struct ExecContext;
}  // namespace spgemm

namespace core {

/// The Block Reorganizer's pre-process output (paper Fig. 4): every
/// nonzero column/row pair lands in exactly one of three bins, and merge
/// rows are split into limited / non-limited.
struct Classification {
  /// Pairs whose intermediate output exceeds the dominator threshold
  /// ("Dominator bin") — targets of B-Splitting.
  std::vector<sparse::Index> dominators;
  /// Pairs with fewer than warp-size effective threads ("Low performer
  /// bin") — targets of B-Gathering.
  std::vector<sparse::Index> low_performers;
  /// Everything else ("Normal bin").
  std::vector<sparse::Index> normals;

  /// Output rows whose C-hat population exceeds the limiting threshold
  /// ("Limiting bin") — merged by the residency-limited kernel.
  std::vector<sparse::Index> limited_rows;

  int64_t dominator_threshold = 0;
  int64_t limit_row_threshold = 0;
};

/// Classifies every nonzero pair of `workload` per the config thresholds.
/// A pair is a dominator when pair_work > dominator threshold; otherwise a
/// low performer when its effective thread count (nnz of the B row) is
/// below the warp size; otherwise normal. Zero-work pairs are dropped.
///
/// With a context, records a "classify" span plus classifier.* gauges
/// (bin populations and both thresholds). Gauges, not counters: Plan and
/// Compute both classify, and re-derivation must not double-count.
Classification Classify(const spgemm::Workload& workload,
                        const ReorganizerConfig& config,
                        spgemm::ExecContext* ctx = nullptr);

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_WORKLOAD_CLASSIFIER_H_
