#ifndef SPNET_SPGEMM_PLAN_H_
#define SPNET_SPGEMM_PLAN_H_

#include <cstdint>
#include <vector>

#include "gpusim/kernel_desc.h"
#include "gpusim/kernel_stats.h"

namespace spnet {
namespace spgemm {

/// Bytes of one intermediate/output element: a 4-byte column index plus an
/// 8-byte value, the unordered-CSR payload the paper's kernels stream.
inline constexpr int64_t kElementBytes = 12;

/// Bytes of one index entry (CSR ptr/idx bookkeeping reads).
inline constexpr int64_t kIndexBytes = 4;

/// Everything needed to simulate one spGEMM execution: the ordered kernel
/// launches plus the host-side work the paper includes in its timings
/// (precalculation, classification, B-Splitting preprocessing).
struct SpGemmPlan {
  std::vector<gpusim::KernelDesc> kernels;
  /// Multiply operations == intermediate (C-hat) elements.
  int64_t flops = 0;
  /// Estimated output nnz (Workload::output_nnz, see workload_model.h).
  int64_t output_nnz = 0;
  /// Modeled host-side preprocessing seconds (CPU, not device cycles).
  double host_seconds = 0.0;
};

/// The result of simulating a plan on a device.
struct SpGemmMeasurement {
  gpusim::KernelStats stats;        ///< accumulated over all kernels
  gpusim::KernelStats expansion;    ///< expansion-phase kernels only
  gpusim::KernelStats merge;        ///< merge-phase kernels only
  double host_seconds = 0.0;
  double total_seconds = 0.0;       ///< device + host
  int64_t flops = 0;
  int64_t output_nnz = 0;

  /// GFLOPS counting a multiply-add as two floating-point operations,
  /// matching the paper's Figure 9 convention.
  double Gflops() const {
    if (total_seconds <= 0.0) return 0.0;
    return 2.0 * static_cast<double>(flops) / total_seconds / 1e9;
  }
};

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_PLAN_H_
