#include "spgemm/outer_product.h"

#include "spgemm/plan.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

using gpusim::KernelDesc;
using gpusim::Phase;
using sparse::CsrMatrix;

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

}  // namespace

Result<SpGemmPlan> OuterProductSpGemm::PlanImpl(const CsrMatrix& a,
                                                const CsrMatrix& b,
                                                const gpusim::DeviceSpec&,
                                                ExecContext*) const {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch in outer-product plan");
  }
  const Workload workload = BuildWorkload(a, b);

  SpGemmPlan plan;
  plan.flops = workload.flops;
  plan.output_nnz = workload.output_nnz;
  plan.kernels.push_back(BuildOuterProductExpansion(workload, 256));
  MergeOptions merge;
  for (KernelDesc& k : BuildMergeKernels(workload, merge)) {
    plan.kernels.push_back(std::move(k));
  }
  // Outer product needs the row-wise C-hat prefix sums (relocation
  // cursors) before expansion. The plan emits no kernel for that scan and
  // charges only host_seconds over the pairs; whether it becomes a device
  // kernel is ROADMAP item 2, Step B.
  plan.host_seconds =
      HostPreprocessSeconds(static_cast<int64_t>(workload.pair_work.size()), 0);
  return plan;
}

std::unique_ptr<SpGemmAlgorithm> MakeOuterProduct() {
  return std::make_unique<OuterProductSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
