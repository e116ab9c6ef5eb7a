#include <algorithm>
#include <memory>

#include "spgemm/algorithm.h"
#include "spgemm/plan.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

namespace {


// System 1 host of Table I: Xeon E5-2640v4, 10 cores / 20 threads.
constexpr double kCores = 10.0;
constexpr double kCoreGhz = 2.8;          // sustained all-core clock
constexpr double kOpsPerCycle = 2.0;      // scalar-ish sparse inner loop
constexpr double kMemBandwidthGBs = 110.0; // cache-assisted effective
constexpr double kParallelEfficiency = 0.75;

/// Surrogate for Intel MKL's CPU spGEMM (mkl_sparse_sp2m): multithreaded
/// Gustavson. The CPU's caches make it immune to the GPU's divergence and
/// occupancy pathologies, but it is capped by core count and DRAM
/// bandwidth — landing at roughly half the GPU row-product baseline on
/// the paper's dataset mix (Fig. 8). Modeled as a host-side roofline; no
/// device kernels are launched.
class MklLikeSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "MKL"; }

  Result<SpGemmPlan> PlanImpl(const Workload& workload,
                              const gpusim::DeviceSpec&,
                              ExecContext*) const override {
    SpGemmPlan plan;
    // Compute roofline: one multiply-accumulate per intermediate product
    // across the cores (the symbolic pass rides the caches warmed here).
    const double compute_seconds =
        static_cast<double>(workload.flops) /
        (kCores * kParallelEfficiency * kCoreGhz * 1e9 * kOpsPerCycle);
    // Memory roofline: the LLC keeps most B rows resident (Gustavson's
    // accumulator is cache-friendly), so only ~30% of the per-product
    // reads reach DRAM, plus the output write-out.
    const double bytes =
        static_cast<double>(kElementBytes) *
        (0.3 * static_cast<double>(workload.flops) +
         static_cast<double>(workload.output_nnz) * 2.0);
    const double memory_seconds = bytes / (kMemBandwidthGBs * 1e9);

    plan.host_seconds = std::max(compute_seconds, memory_seconds) + 30e-6;
    return plan;  // no device kernels
  }
};

}  // namespace

std::unique_ptr<SpGemmAlgorithm> MakeMklLike() {
  return std::make_unique<MklLikeSpGemm>();
}

}  // namespace spgemm
}  // namespace spnet
