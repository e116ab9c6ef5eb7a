#ifndef SPNET_GPUSIM_SIMULATOR_H_
#define SPNET_GPUSIM_SIMULATOR_H_

#include <vector>

#include "common/status.h"
#include "gpusim/device_spec.h"
#include "gpusim/kernel_desc.h"
#include "gpusim/kernel_stats.h"

namespace spnet {
namespace gpusim {

/// Resident-block capacity of one SM for blocks with the given resource
/// footprint — the CUDA occupancy rule that B-Limiting manipulates via
/// extra shared memory.
int OccupancyBlocksPerSm(const DeviceSpec& device, int threads_per_block,
                         int64_t shared_mem_per_block);

/// Deterministic SIMT execution-model simulator.
///
/// The model is event-driven at thread-block granularity. Blocks go out
/// in kernel order: an initial wave places them round-robin, one per SM
/// per round, while an SM can host the next one; then each SM a block
/// retires from is backfilled with the next blocks that fit. A block's
/// duration is analytic, from its descriptor, its SM's residency and the
/// backlogs of three queued servers (SM warp schedulers, SM LSU pipe,
/// device DRAM):
///
///   issue    = warp_issue_ops * cpi at the block's own warp parallelism
///   bandwidth= LSU bytes and DRAM bytes, each on its server
///   atomic   = atomic_ops * cost / eligible warps (off-chip: * contention)
///   latency  = (read chains * avg latency + store chains * backpressure)
///              / hiding(eligible warps)
///   duration = startup + dispatch wait + max(issue, bandwidth, atomic)
///              + latency
///
/// Reads of `shared_read_bytes` (cross-block hot data) are served by the
/// cache, mostly the L1; other reads hit the L2 at the constant
/// `streaming_hit_rate`, and the rest, like all writes, go to DRAM.
class Simulator {
 public:
  explicit Simulator(DeviceSpec device) : device_(std::move(device)) {}

  const DeviceSpec& device() const { return device_; }

  /// Simulates one kernel launch and returns its profile.
  Result<KernelStats> RunKernel(const KernelDesc& kernel) const;

 private:
  struct BlockCost {
    double cycles = 0.0;
    double lsu_service = 0.0;    // this block's demand on the SM's LSU pipe
    double issue_service = 0.0;  // this block's demand on the warp schedulers
    double dram_service = 0.0;   // this block's demand on device DRAM
    int64_t l2_read_bytes = 0;
    int64_t l2_write_bytes = 0;
    int64_t dram_bytes = 0;
  };

  /// Per-block analytic cost given the off-chip atomic contention factor
  /// at the SM's dispatch-time residency and the outstanding backlogs of
  /// the three shared servers (SM warp schedulers, SM LSU pipe,
  /// device-wide DRAM).
  BlockCost CostBlock(const ThreadBlockDesc& tb, double atomic_contention,
                      double lsu_backlog, double issue_backlog,
                      double dram_backlog) const;

  /// The scheduling pass.
  KernelStats Schedule(const KernelDesc& kernel) const;

  DeviceSpec device_;
};

}  // namespace gpusim
}  // namespace spnet

#endif  // SPNET_GPUSIM_SIMULATOR_H_
