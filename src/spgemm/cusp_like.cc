#include <algorithm>
#include <memory>

#include "common/math_util.h"
#include "spgemm/algorithm.h"
#include "spgemm/plan.h"
#include "spgemm/row_product.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

namespace {

using gpusim::KernelDesc;
using gpusim::Phase;
using gpusim::ThreadBlockDesc;
using sparse::CsrMatrix;

// Radix-sort passes over the intermediate element list (8-bit digits over
// a (row, col) key wider than 32 bits).
constexpr int kSortPasses = 5;
// Elements processed by one balanced streaming block.
constexpr int64_t kTileElements = 8192;

/// Appends balanced streaming blocks that read and write `total_bytes`
/// across ceil(total_elements / kTileElements) blocks.
void AppendStreamingPass(KernelDesc* kernel, int64_t total_elements,
                         int64_t bytes_per_element, double ops_per_element) {
  if (total_elements <= 0) return;
  const int64_t tiles = CeilDiv(total_elements, kTileElements);
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t elems =
        std::min(kTileElements, total_elements - t * kTileElements);
    ThreadBlockDesc tb;
    tb.threads = 256;
    tb.effective_threads = 256;
    tb.crit_ops = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(CeilDiv(elems, 256)) *
                                ops_per_element));
    tb.warp_issue_ops = tb.crit_ops * 8;  // 8 warps, balanced
    tb.useful_lane_ops = tb.crit_ops * 256;
    tb.bytes_read = elems * bytes_per_element;
    tb.bytes_written = elems * bytes_per_element;
    tb.shared_mem_bytes = 8192;  // digit histograms / scan tiles
    kernel->blocks.push_back(tb);
  }
}

/// Surrogate for CUSP's ESC (expand–sort–compress) spGEMM: expansion
/// materializes all partial products into a global list, a multi-pass
/// radix sort orders them by (row, col), and a compaction pass folds
/// duplicates. Every pass streams the full intermediate list, so the
/// scheme drowns in memory traffic exactly where C-hat explodes — the
/// skewed half of the paper's datasets.
class CuspLikeSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "CUSP"; }

  Result<SpGemmPlan> PlanImpl(const CsrMatrix& a, const CsrMatrix& b,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    if (a.cols() != b.rows()) {
      return Status::InvalidArgument("dimension mismatch in CUSP plan");
    }
    const Workload workload = BuildWorkload(a, b);
    SpGemmPlan plan;
    plan.flops = workload.flops;
    plan.output_nnz = workload.output_nnz;

    // Expansion into the global list (coalesced appends).
    RowExpansionOptions expand;
    expand.label = "cusp-expand";
    expand.write_scatter_factor = 1.0;
    plan.kernels.push_back(BuildRowProductExpansion(workload, expand));

    // Sort: kSortPasses streaming passes over (key, value) pairs.
    KernelDesc sort;
    sort.label = "cusp-radix-sort";
    sort.phase = Phase::kMerge;
    for (int pass = 0; pass < kSortPasses; ++pass) {
      // Each pass reads the list and scatter-writes it to the new digit
      // positions (the scatter roughly doubles the write transactions).
      AppendStreamingPass(&sort, workload.flops, kElementBytes + 8,
                          /*ops_per_element=*/3.0);
    }
    plan.kernels.push_back(std::move(sort));

    // Compress: one pass reading the sorted list, writing the output.
    KernelDesc compress;
    compress.label = "cusp-compress";
    compress.phase = Phase::kMerge;
    AppendStreamingPass(&compress, workload.flops, kElementBytes,
                        /*ops_per_element=*/1.0);
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
