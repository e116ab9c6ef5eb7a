#include <memory>
#include <string>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

using gpusim::KernelDesc;
using gpusim::Phase;

namespace {

/// The plain outer-product expansion kernel: one block per nonzero pair,
/// no reorganization.
KernelDesc BuildOuterProductExpansion(const Workload& workload,
                                      int block_size) {
  KernelDesc kernel;
  kernel.label = "outer-product-expansion";
  kernel.phase = Phase::kExpansion;
  kernel.flops = workload.flops;
  const size_t pairs = workload.pair_work.size();
  for (size_t i = 0; i < pairs; ++i) {
    if (workload.pair_work[i] == 0) continue;
    PairBlockParams p;
    p.col_nnz = workload.a_col_nnz[i];
    p.row_nnz = workload.b_row_nnz[i];
    p.block_size = block_size;
    kernel.blocks.push_back(MakePairBlock(p));
  }
  return kernel;
}

/// The outer-product (column-row product) baseline the Block Reorganizer
/// builds on: pair i = (column i of A) x (row i of B) forms one thread
/// block, so every thread in a block does identical work (perfect
/// thread-level balance) — but block-level workloads vary wildly on
/// power-law data, creating the overloaded/underloaded block problem the
/// paper analyzes in Section III. Pairs are dispatched in index order, so
/// the host Compute is the base row product with no relabel.
class OuterProductSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "outer-product"; }

 protected:
  Result<SpGemmPlan> PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    SpGemmPlan plan;
    plan.kernels.push_back(BuildOuterProductExpansion(workload, 256));
    AppendMergeKernels(workload, MergeOptions{}, &plan.kernels);
    // Outer product needs the row-wise C-hat prefix sums (relocation
    // cursors) before expansion. The plan emits no kernel for that scan
    // and charges only host_seconds over the pairs; whether it becomes a
    // device kernel is ROADMAP item 2, Step B.
    plan.host_seconds = HostPreprocessSeconds(
        static_cast<int64_t>(workload.pair_work.size()), 0);
    return plan;
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeOuterProduct() {
  return std::make_unique<OuterProductSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
