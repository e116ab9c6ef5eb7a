#include <memory>
#include <vector>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"
#include "spgemm/row_product.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

namespace {

/// Surrogate for AC-spGEMM (Winter et al., PPoPP'19), discussed in the
/// paper's related work: a row-product scheme with *thread-level* load
/// balancing — work is cut into fixed-size chunks pulled from a global
/// queue, so warps stay busy regardless of row lengths. The chunk
/// machinery costs bookkeeping instructions and extra traffic for the
/// per-row linked-list structures the paper calls out ("additional
/// control overhead to secure per-row linked list structures"), and the
/// merge remains unfused.
class AcSpGemmLike : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "AC-spGEMM"; }

  Result<SpGemmPlan> PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    SpGemmPlan plan;
    // Chunked execution behaves like processing rows in sorted order with
    // perfectly filled warps: model via the sorted row_order (no
    // intra-warp divergence) at a bookkeeping cost per product.
    const std::vector<int64_t> order = RowsByChat(workload);

    RowExpansionOptions expansion;
    expansion.label = "acspgemm-chunked";
    expansion.row_order = &order;
    expansion.write_scatter_factor = 1.2;  // chunk-local staging
    expansion.traffic_multiplier = 1.25;   // chunk headers + linked lists
    expansion.ops_multiplier = 1.6;        // queue pops, chunk bookkeeping
    plan.kernels.push_back(
        BuildRowProductExpansion(workload, workload.row_chat, expansion));

    AppendMergeKernels(workload, MergeOptions{}, &plan.kernels);
    plan.host_seconds = HostPreprocessSeconds(
        static_cast<int64_t>(workload.row_chat.size()), 0);
    return plan;
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeAcSpGemmLike() {
  return std::make_unique<AcSpGemmLike>();
}

}  // namespace spgemm
}  // namespace spnet
