#ifndef SPNET_GPUSIM_KERNEL_DESC_H_
#define SPNET_GPUSIM_KERNEL_DESC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace spnet {
namespace gpusim {

/// Which pipeline phase a kernel belongs to; used to split counters the
/// way the paper's Figure 3(c) does.
enum class Phase {
  kExpansion,
  kMerge,
  kPreprocess,
};

const char* PhaseName(Phase phase);

/// Workload descriptor of one thread block, the unit the SIMT timing model
/// consumes. The spGEMM layers translate algorithm structure (which pair /
/// rows a block handles, how threads map to nonzeros) into these aggregate
/// quantities; the simulator never needs the matrices themselves.
struct ThreadBlockDesc {
  /// Launched threads (the CUDA block size).
  int threads = 0;
  /// Threads that perform useful work. Lock-step warps mean the block
  /// still occupies ceil(threads/32) warps of issue bandwidth.
  int effective_threads = 0;

  /// Sum over the block's warps of the *longest* lane's op count — the
  /// warp-instructions actually issued under lock-step execution.
  int64_t warp_issue_ops = 0;
  /// Longest lane in the whole block: every lane is held at the closing
  /// barrier for this many op-slots, which is what the sync-stall metric
  /// charges against.
  int64_t crit_ops = 0;
  /// Sum over all lanes of useful ops; warp_issue_ops*32 - useful_lane_ops
  /// lane-slots are wasted (divergence / sync stalls).
  int64_t useful_lane_ops = 0;

  /// Global memory traffic after coalescing.
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  /// Subset of bytes_read expected hot in L2 because concurrently-running
  /// blocks share it (e.g. the duplicated dominator vectors after
  /// B-Splitting).
  int64_t shared_read_bytes = 0;

  /// Per-block shared memory request; with B-Limiting this includes the
  /// extra allocation used purely to lower residency.
  int64_t shared_mem_bytes = 0;

  /// Atomic read-modify-write operations (merge accumulators).
  int64_t atomic_ops = 0;
  /// True when the accumulator fits in shared memory: atomics stay on-chip
  /// and avoid L2 residency contention entirely. Long output rows cannot
  /// do this — they are the B-Limiting targets.
  bool atomics_in_shared = false;
};

/// One kernel launch: an ordered list of thread blocks dispatched to the
/// device, plus bookkeeping for reporting.
struct KernelDesc {
  std::string label;
  Phase phase = Phase::kExpansion;
  std::vector<ThreadBlockDesc> blocks;

  /// Useful floating-point work this kernel contributes (for GFLOPS).
  int64_t flops = 0;
};

}  // namespace gpusim
}  // namespace spnet

#endif  // SPNET_GPUSIM_KERNEL_DESC_H_
