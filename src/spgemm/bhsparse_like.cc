#include <memory>
#include <vector>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"
#include "spgemm/row_product.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

namespace {

/// Surrogate for bhSPARSE (Liu & Vinter, IPDPS'14): a row-product scheme
/// that bins output rows by their upper-bound work so each bin runs a
/// size-specialized kernel — rows in a warp have similar lengths, removing
/// most intra-warp divergence. Very long rows overflow to a global-memory
/// merge path that re-streams their data. Binning itself is a host pass.
/// The scheme narrows but does not close the row-product gap on heavily
/// skewed inputs (paper Figs. 8/16a): hub rows still serialize in the
/// overflow path and the merge stays contended.
class BhsparseLikeSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "bhSPARSE"; }

  Result<SpGemmPlan> PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    SpGemmPlan plan;
    // Bin rows by work: sorting by C-hat population puts similar rows in
    // the same warp, which is exactly what per-bin kernels achieve.
    const std::vector<int64_t> order = RowsByChat(workload);

    // Overflow rows (beyond the largest bin) pay the global-memory merge
    // path: their traffic is re-streamed once more. Model by giving the
    // overflow kernel only their C-hat work, at a higher traffic
    // multiplier, and the binned kernel only the other rows'.
    constexpr int64_t kOverflowThreshold = 4096;
    std::vector<int64_t> binned = workload.row_chat;
    std::vector<int64_t> overflow = workload.row_chat;
    for (size_t r = 0; r < workload.row_chat.size(); ++r) {
      if (workload.row_chat[r] > kOverflowThreshold) {
        binned[r] = 0;
      } else {
        overflow[r] = 0;
      }
    }

    RowExpansionOptions binned_opts;
    binned_opts.label = "bhsparse-binned";
    binned_opts.row_order = &order;
    binned_opts.traffic_multiplier = 1.8;    // progress/bin bookkeeping
    binned_opts.write_scatter_factor = 1.5;  // bin-local staging helps
    plan.kernels.push_back(
        BuildRowProductExpansion(workload, binned, binned_opts));

    RowExpansionOptions overflow_opts;
    overflow_opts.label = "bhsparse-overflow";
    overflow_opts.row_order = &order;        // overflow bin is also sorted
    overflow_opts.traffic_multiplier = 2.2;  // global-memory re-stream
    overflow_opts.write_scatter_factor = 1.5;
    plan.kernels.push_back(
        BuildRowProductExpansion(workload, overflow, overflow_opts));

    AppendMergeKernels(workload, MergeOptions{}, &plan.kernels);

    // Host-side binning scan over the rows.
    plan.host_seconds = HostPreprocessSeconds(
        static_cast<int64_t>(workload.row_chat.size()), 0);
    return plan;
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeBhsparseLike() {
  return std::make_unique<BhsparseLikeSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
