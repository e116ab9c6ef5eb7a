#include <cmath>
#include <memory>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"
#include "spgemm/row_product.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

namespace {

using gpusim::KernelDesc;
using gpusim::ThreadBlockDesc;

// Rows whose output fits a shared-memory hash table (entries).
constexpr int64_t kSharedHashEntries = 4096;

/// Surrogate for hash-based Gustavson spGEMM (nsparse; Nagasaka et al.) —
/// an extension comparison beyond the paper's six baselines. The merge is
/// *fused*: each row's products are accumulated straight into a hash
/// table (shared memory when the output row fits, global otherwise), so
/// no intermediate C-hat is ever written. Probing costs instructions and
/// random accesses, and rows too wide for shared memory fall back to a
/// slow global-hash path — which is exactly where power-law data hurts.
class NsparseLike : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "nsparse-hash"; }

  Result<SpGemmPlan> PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    SpGemmPlan plan;
    // Fused expansion+merge: build per-row blocks directly. Shared-hash
    // rows write only the final output; global-hash rows pay RMW traffic
    // per product.
    KernelDesc fused;
    fused.label = "nsparse-fused-hash";
    fused.phase = gpusim::Phase::kExpansion;
    fused.flops = workload.flops;
    const int block_size = 256;
    // Batch small rows warp-per-row; big rows block-per-row.
    for (size_t r = 0; r < workload.row_chat.size(); ++r) {
      const int64_t chat = workload.row_chat[r];
      if (chat <= 0) continue;
      const int64_t out = workload.row_c_est[r];
      ThreadBlockDesc tb;
      const bool shared_hash = out <= kSharedHashEntries;
      const int64_t threads =
          std::min<int64_t>(block_size, std::max<int64_t>(32, chat));
      tb.threads = static_cast<int>(threads);
      tb.effective_threads = tb.threads;
      const int64_t lane_ops = (chat + threads - 1) / threads;
      // ~2.2 probes per insert in shared memory at a healthy load factor;
      // the global-hash fallback probes through the L2/DRAM, re-reading
      // table lines, and needs roughly twice the traffic.
      const double probes = shared_hash ? 2.2 : 4.0;
      tb.crit_ops = static_cast<int64_t>(probes * static_cast<double>(lane_ops));
      tb.warp_issue_ops = tb.crit_ops * (tb.threads / 32);
      tb.useful_lane_ops =
          static_cast<int64_t>(probes * static_cast<double>(chat));
      tb.bytes_read = kElementBytes * chat * (shared_hash ? 1 : 2);
      tb.bytes_written = kElementBytes * out;
      tb.atomic_ops = shared_hash ? chat : 2 * chat;
      tb.atomics_in_shared = shared_hash;
      tb.shared_mem_bytes =
          shared_hash ? kSharedHashEntries * 12 : 4096;
      fused.blocks.push_back(tb);
    }
    plan.kernels.push_back(std::move(fused));

    // Symbolic sizing pass (hash spGEMM needs nnz(C) upfront).
    KernelDesc symbolic;
    symbolic.label = "nsparse-symbolic";
    symbolic.phase = gpusim::Phase::kPreprocess;
    AppendBalancedStreamingBlocks(&symbolic, workload.flops / 4 + 1,
                                  /*bytes_per_element=*/4,
                                  /*ops_per_element=*/1.0,
                                  /*shared_mem_bytes=*/4096);
    plan.kernels.push_back(std::move(symbolic));

    plan.host_seconds = HostPreprocessSeconds(0, 0);
    return plan;
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeNsparseLike() {
  return std::make_unique<NsparseLike>();
}

}  // namespace spgemm
}  // namespace spnet
