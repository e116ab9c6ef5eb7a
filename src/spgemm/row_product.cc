#include "spgemm/row_product.h"

#include <algorithm>

#include "common/math_util.h"
#include "spgemm/plan.h"

namespace spnet {
namespace spgemm {

using gpusim::KernelDesc;
using gpusim::Phase;
using gpusim::ThreadBlockDesc;
using sparse::CsrMatrix;

namespace {

// Rows with more expansion work than this get a whole warp (coalesced,
// divergence-free); beyond the second bound, a whole block. Thread-per-row
// below — where the scheme's intra-warp imbalance lives.
constexpr int64_t kWarpRowThreshold = 65536;
constexpr int64_t kBlockRowThreshold = 65536;

}  // namespace

KernelDesc BuildRowProductExpansion(const Workload& workload,
                                    const RowExpansionOptions& options) {
  KernelDesc kernel;
  kernel.label = options.label;
  kernel.phase = Phase::kExpansion;
  kernel.flops = workload.flops;

  const int block_size = options.block_size;

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

  // Lanes of a thread-per-row warp gather from 32 different B rows, so a
  // cold element costs a whole 32-byte sector; warp-per-row lanes walk one
  // row together and stay coalesced at the element payload.
  constexpr int64_t kScatteredElementBytes = 32;
  auto fill_traffic = [&](ThreadBlockDesc* tb, int64_t block_work,
                          double scatter, bool scattered_reads) {
    const double work = static_cast<double>(block_work);
    const double hot = b_reuse_frac * kElementBytes * work;
    const double cold_per_element =
        scattered_reads ? kScatteredElementBytes : kElementBytes;
    const double cold = (1.0 - b_reuse_frac) * cold_per_element * work;
    const double a_read = kElementBytes * work / 4.0;  // approx
    tb->bytes_read = static_cast<int64_t>((hot + cold + a_read) *
                                          options.traffic_multiplier);
    tb->shared_read_bytes =
        static_cast<int64_t>(hot * options.traffic_multiplier);
    tb->bytes_written =
        static_cast<int64_t>(static_cast<double>(kElementBytes) * work *
                             scatter * options.traffic_multiplier);
    tb->shared_mem_bytes = 1024;
  };
  auto scale_ops = [&](int64_t ops) {
    return static_cast<int64_t>(static_cast<double>(ops) *
                                options.ops_multiplier);
  };

  // Partition rows by work class, preserving the requested order inside
  // each class.
  const RowSizeClasses classes = ClassifyRowSizes(
      workload.row_chat, kWarpRowThreshold, kBlockRowThreshold,
      options.row_order);
  const std::vector<uint32_t>& small_rows = classes.small;
  const std::vector<uint32_t>& warp_rows = classes.mid;
  const std::vector<uint32_t>& block_rows = classes.large;

  // Thread-per-row blocks: lock-step warps stall on their longest row.
  const size_t rows_per_block = static_cast<size_t>(block_size);
  for (size_t begin = 0; begin < small_rows.size(); begin += rows_per_block) {
    const size_t end =
        std::min(small_rows.size(), begin + rows_per_block);
    ThreadBlockDesc tb;
    tb.threads = block_size;
    int64_t block_work = 0;
    int64_t crit = 0;
    int64_t warp_issue = 0;
    for (size_t w0 = begin; w0 < end; w0 += 32) {
      const size_t w1 = std::min(end, w0 + 32);
      int64_t warp_max = 0;
      for (size_t k = w0; k < w1; ++k) {
        const int64_t ops = workload.row_chat[small_rows[k]];
        block_work += ops;
        warp_max = std::max(warp_max, ops);
      }
      warp_issue += warp_max;
      crit = std::max(crit, warp_max);
    }
    if (block_work == 0) continue;
    tb.effective_threads = static_cast<int>(end - begin);
    tb.crit_ops = scale_ops(crit);
    tb.warp_issue_ops = scale_ops(warp_issue);
    tb.useful_lane_ops = scale_ops(block_work);
    fill_traffic(&tb, block_work, options.write_scatter_factor, true);
    kernel.blocks.push_back(tb);
  }

  // Warp-per-row blocks: lanes split the row, coalesced writes.
  const size_t warps_per_block = static_cast<size_t>(block_size) / 32;
  for (size_t begin = 0; begin < warp_rows.size();
       begin += warps_per_block) {
    const size_t end =
        std::min(warp_rows.size(), begin + warps_per_block);
    ThreadBlockDesc tb;
    tb.threads = static_cast<int>(32 * (end - begin));
    tb.effective_threads = tb.threads;
    int64_t block_work = 0;
    int64_t crit = 0;
    int64_t warp_issue = 0;
    for (size_t k = begin; k < end; ++k) {
      const int64_t chat = workload.row_chat[warp_rows[k]];
      const int64_t lane_ops = CeilDiv(chat, 32);
      block_work += chat;
      warp_issue += lane_ops;
      crit = std::max(crit, lane_ops);
    }
    tb.crit_ops = scale_ops(crit);
    tb.warp_issue_ops = scale_ops(warp_issue);
    tb.useful_lane_ops = scale_ops(block_work);
    fill_traffic(&tb, block_work, 1.0, false);
    kernel.blocks.push_back(tb);
  }

  // Block-per-row: the hub rows; the whole block streams one row.
  for (const uint32_t r : block_rows) {
    const int64_t chat = workload.row_chat[r];
    ThreadBlockDesc tb;
    tb.threads = block_size;
    tb.effective_threads = block_size;
    const int64_t lane_ops = CeilDiv(chat, block_size);
    tb.crit_ops = scale_ops(lane_ops);
    tb.warp_issue_ops = scale_ops(lane_ops * (block_size / 32));
    tb.useful_lane_ops = scale_ops(chat);
    fill_traffic(&tb, chat, 1.0, false);
    kernel.blocks.push_back(tb);
  }
  return kernel;
}

Result<SpGemmPlan> RowProductSpGemm::PlanImpl(const CsrMatrix& a,
                                              const CsrMatrix& b,
                                              const gpusim::DeviceSpec&,
                                              ExecContext*) const {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch in row-product plan");
  }
  const Workload workload = BuildWorkload(a, b);

  SpGemmPlan plan;
  plan.flops = workload.flops;
  plan.output_nnz = workload.output_nnz;
  RowExpansionOptions options;
  // Per product, the thread-per-row inner loop issues the whole gather /
  // multiply / cursor-store sequence from one lane, roughly three times
  // the outer-product scheme's per-product instruction stream (which
  // amortizes the column element across a full warp).
  options.ops_multiplier = 3.0;
  plan.kernels.push_back(BuildRowProductExpansion(workload, options));

  MergeOptions merge;
  for (gpusim::KernelDesc& k : BuildMergeKernels(workload, merge)) {
    plan.kernels.push_back(std::move(k));
  }
  // No preprocessing beyond the kernel launches themselves.
  plan.host_seconds = HostPreprocessSeconds(0, 0);
  return plan;
}

std::unique_ptr<SpGemmAlgorithm> MakeRowProduct() {
  return std::make_unique<RowProductSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
