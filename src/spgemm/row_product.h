#ifndef SPNET_SPGEMM_ROW_PRODUCT_H_
#define SPNET_SPGEMM_ROW_PRODUCT_H_

#include "spgemm/algorithm.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

/// The paper's main baseline: row-product expansion (one thread per output
/// row, thread t expands row t's partial products) followed by the
/// Gustavson dense-accumulator merge. Thread-level load imbalance inside a
/// warp is this scheme's weakness on power-law data: a warp's lanes run in
/// lock-step, so every lane waits for the hub row.
class RowProductSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "row-product"; }

 protected:
  Result<SpGemmPlan> PlanImpl(const sparse::CsrMatrix& a,
                              const sparse::CsrMatrix& b,
                              const gpusim::DeviceSpec& device,
                              ExecContext* ctx) const override;
};

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

/// Builds the row-product expansion kernel over `workload`.
gpusim::KernelDesc BuildRowProductExpansion(const Workload& workload,
                                            const RowExpansionOptions& options);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_ROW_PRODUCT_H_
