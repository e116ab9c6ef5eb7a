#ifndef SPNET_SPGEMM_ROW_PRODUCT_H_
#define SPNET_SPGEMM_ROW_PRODUCT_H_

#include <cstdint>
#include <vector>

#include "gpusim/kernel_desc.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

/// Knobs for the row-product expansion kernel builder, used to express
/// the library surrogates' structural differences.
struct RowExpansionOptions {
  const char* label = "row-product-expansion";
  /// Scales all memory traffic (two-pass schemes read everything twice).
  double traffic_multiplier = 1.0;
  /// Models uncoalesced per-thread row-buffer writes (>1 = extra
  /// transactions per logical byte).
  double write_scatter_factor = 1.5;
  /// Scales instruction counts (sorted-insertion accumulation pays a
  /// log-factor per product).
  double ops_multiplier = 1.0;
  /// When set, rows are processed in this order (bhSPARSE-style binning
  /// assigns similar rows to the same warp). Must be a permutation of
  /// [0, rows).
  const std::vector<int64_t>* row_order = nullptr;
};

/// Builds the row-product expansion kernel over `workload`'s flops and B
/// rows, walking the per-row C-hat work `row_chat` (usually
/// workload.row_chat; a scheme that splits rows between kernels passes
/// each kernel's share, zero elsewhere).
gpusim::KernelDesc BuildRowProductExpansion(
    const Workload& workload, const std::vector<int64_t>& row_chat,
    const RowExpansionOptions& options);

/// The output rows in ascending row_chat order, ties in row order: the
/// row_order of schemes that put rows of similar work in one warp.
std::vector<int64_t> RowsByChat(const Workload& workload);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_ROW_PRODUCT_H_
