#include <memory>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"
#include "spgemm/row_product.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

namespace {

using gpusim::KernelDesc;
using gpusim::Phase;

// Radix-sort passes over the intermediate element list (8-bit digits over
// a (row, col) key wider than 32 bits).
constexpr int kSortPasses = 5;
// Shared memory of a sort or compress block (digit histograms / scan
// tiles).
constexpr int64_t kStreamingSharedMemBytes = 8192;

/// Surrogate for CUSP's ESC (expand–sort–compress) spGEMM: expansion
/// materializes all partial products into a global list, a multi-pass
/// radix sort orders them by (row, col), and a compaction pass folds
/// duplicates. Every pass streams the full intermediate list, so the
/// scheme drowns in memory traffic exactly where C-hat explodes — the
/// skewed half of the paper's datasets.
class CuspLikeSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "CUSP"; }

  Result<SpGemmPlan> PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    SpGemmPlan plan;
    // Expansion into the global list (coalesced appends).
    RowExpansionOptions expand;
    expand.label = "cusp-expand";
    expand.write_scatter_factor = 1.0;
    plan.kernels.push_back(
        BuildRowProductExpansion(workload, workload.row_chat, expand));

    // Sort: kSortPasses streaming passes over (key, value) pairs.
    KernelDesc sort;
    sort.label = "cusp-radix-sort";
    sort.phase = Phase::kMerge;
    for (int pass = 0; pass < kSortPasses; ++pass) {
      // Each pass reads the list and scatter-writes it to the new digit
      // positions (the scatter roughly doubles the write transactions).
      AppendBalancedStreamingBlocks(&sort, workload.flops, kElementBytes + 8,
                                    /*ops_per_element=*/3.0,
                                    kStreamingSharedMemBytes);
    }
    plan.kernels.push_back(std::move(sort));

    // Compress: one pass reading the sorted list, writing the output.
    KernelDesc compress;
    compress.label = "cusp-compress";
    compress.phase = Phase::kMerge;
    AppendBalancedStreamingBlocks(&compress, workload.flops, kElementBytes,
                                  /*ops_per_element=*/1.0,
                                  kStreamingSharedMemBytes);
    plan.kernels.push_back(std::move(compress));

    plan.host_seconds = HostPreprocessSeconds(0, 0);
    return plan;
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeCuspLike() {
  return std::make_unique<CuspLikeSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
