#include "spgemm/row_product.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"

namespace spnet {
namespace spgemm {

using gpusim::KernelDesc;
using gpusim::Phase;
using gpusim::ThreadBlockDesc;

namespace {

// Rows with more expansion work than this get a whole block; every other
// row is thread-per-row, where the scheme's intra-warp imbalance lives.
// No row is warp-per-row.
constexpr int64_t kBlockRowThreshold = 65536;
constexpr int kBlockSize = 256;

}  // namespace

KernelDesc BuildRowProductExpansion(const Workload& workload,
                                    const std::vector<int64_t>& row_chat,
                                    const RowExpansionOptions& options) {
  KernelDesc kernel;
  kernel.label = options.label;
  kernel.phase = Phase::kExpansion;
  kernel.flops = workload.flops;

  // Cross-thread reuse of B rows: of the flops-proportional B reads, only
  // the distinct B data is cold; the rest hits L1/L2. (Global
  // approximation applied per block.)
  int64_t b_nnz = 0;
  for (int64_t v : workload.b_row_nnz) b_nnz += v;
  const double b_reuse_frac =
      workload.flops > 0
          ? std::max(0.0, 1.0 - static_cast<double>(b_nnz) /
                                    static_cast<double>(workload.flops))
          : 0.0;
  auto scale_ops = [&](int64_t ops) {
    return static_cast<int64_t>(static_cast<double>(ops) *
                                options.ops_multiplier);
  };

  const RowSizeClasses classes = ClassifyRowSizes(
      row_chat, kBlockRowThreshold, kBlockRowThreshold, options.row_order);
  WalkRowBlocks(row_chat, classes, kBlockSize,
                [&](const RowBlock& block) {
    ThreadBlockDesc tb;
    tb.threads = block.threads;
    tb.effective_threads = block.effective_threads;
    tb.crit_ops = scale_ops(block.crit_ops);
    tb.warp_issue_ops = scale_ops(block.warp_issue_ops);
    tb.useful_lane_ops = scale_ops(block.chat);

    // Lanes of a thread-per-row warp gather from 32 different B rows, so
    // a cold element costs a whole 32-byte sector, and their per-thread
    // row-buffer writes scatter; block-per-row lanes walk one row
    // together and stay coalesced at the element payload.
    const bool per_lane = block.kind == RowBlockKind::kThreadPerRow;
    const double work = static_cast<double>(block.chat);
    const double hot = b_reuse_frac * kElementBytes * work;
    const double cold_per_element = per_lane ? 32 : kElementBytes;
    const double cold = (1.0 - b_reuse_frac) * cold_per_element * work;
    const double a_read = kElementBytes * work / 4.0;  // approx
    const double scatter = per_lane ? options.write_scatter_factor : 1.0;
    tb.bytes_read = static_cast<int64_t>((hot + cold + a_read) *
                                         options.traffic_multiplier);
    tb.shared_read_bytes =
        static_cast<int64_t>(hot * options.traffic_multiplier);
    tb.bytes_written =
        static_cast<int64_t>(static_cast<double>(kElementBytes) * work *
                             scatter * options.traffic_multiplier);
    tb.shared_mem_bytes = 1024;
    kernel.blocks.push_back(tb);
  });
  return kernel;
}

std::vector<int64_t> RowsByChat(const Workload& workload) {
  std::vector<int64_t> order(workload.row_chat.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  std::stable_sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return workload.row_chat[static_cast<size_t>(x)] <
           workload.row_chat[static_cast<size_t>(y)];
  });
  return order;
}

namespace {

/// The paper's main baseline: row-product expansion (one thread per output
/// row, thread t expands row t's partial products) followed by the
/// Gustavson dense-accumulator merge. Thread-level load imbalance inside a
/// warp is this scheme's weakness on power-law data: a warp's lanes run in
/// lock-step, so every lane waits for the hub row.
class RowProductSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "row-product"; }

 protected:
  Result<SpGemmPlan> PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    SpGemmPlan plan;
    RowExpansionOptions options;
    // Per product, the thread-per-row inner loop issues the whole gather /
    // multiply / cursor-store sequence from one lane, roughly three times
    // the outer-product scheme's per-product instruction stream (which
    // amortizes the column element across a full warp).
    options.ops_multiplier = 3.0;
    plan.kernels.push_back(
        BuildRowProductExpansion(workload, workload.row_chat, options));
    AppendMergeKernels(workload, MergeOptions{}, &plan.kernels);
    // No preprocessing beyond the kernel launches themselves.
    plan.host_seconds = HostPreprocessSeconds(0, 0);
    return plan;
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeRowProduct() {
  return std::make_unique<RowProductSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
