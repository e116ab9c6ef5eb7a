#ifndef SPNET_GPUSIM_DEVICE_SPEC_H_
#define SPNET_GPUSIM_DEVICE_SPEC_H_

#include <cstdint>
#include <string>

namespace spnet {
namespace gpusim {

/// Architectural parameters of a simulated GPU.
///
/// The presets mirror Table I of the paper (Titan Xp / Tesla V100 /
/// RTX 2080 Ti). Bandwidths are expressed in bytes per core clock cycle so
/// that the timing model works in cycles and converts to seconds only when
/// reporting. The derived ratios (SM count, shared memory per SM, L2 size,
/// DRAM vs L2 bandwidth) are what drive the paper's phenomena; absolute
/// values set the GFLOPS scale.
struct DeviceSpec {
  std::string name;

  int num_sms = 30;
  int warp_size = 32;
  /// Warp schedulers per SM: how many warps can issue in the same cycle.
  int schedulers_per_sm = 4;
  int max_threads_per_sm = 2048;
  int max_blocks_per_sm = 32;
  int64_t shared_mem_per_sm = 96 * 1024;  ///< bytes
  int64_t register_file_per_sm = 256 * 1024;

  double clock_ghz = 1.582;

  int64_t l2_size = 3 * 1024 * 1024;  ///< bytes
  /// Aggregate L2 bandwidth available to all SMs, bytes per cycle.
  double l2_bw_bytes_per_cycle = 1024.0;
  /// Aggregate DRAM bandwidth, bytes per cycle.
  double dram_bw_bytes_per_cycle = 346.0;
  /// Per-SM load/store pipeline bandwidth, bytes per cycle. A single
  /// thread block cannot pull more than this no matter how wide L2 is —
  /// the reason one overloaded block cannot saturate the chip.
  double lsu_bw_bytes_per_sm = 256.0;

  int l2_latency_cycles = 220;
  int dram_latency_cycles = 480;

  /// Issue cycles per warp-instruction (fused multiply-add plus the
  /// bookkeeping of the spGEMM inner loop, amortized).
  double cpi = 12.0;

  /// Maximum latency-hiding factor fast context switching can reach when
  /// enough eligible warps are resident (one new warp can issue roughly
  /// every other cycle per scheduler).
  double max_latency_hiding = 16.0;

  /// Peak single-precision-equivalent throughput used only for reporting
  /// context, ops per cycle over the whole device.
  double flops_per_cycle = 3840.0;

  // --- Execution-model parameters (shared by all presets). -----------------
  // These calibrate the per-block cost model; see simulator.cc for how
  // each term is charged. Values were fit so the seven-algorithm
  // comparison reproduces the paper's relative results (EXPERIMENTS.md).

  /// Fixed device-side cost of one kernel launch.
  double kernel_launch_cycles = 3000.0;
  /// SM-side cost of starting one thread block.
  double block_startup_cycles = 200.0;
  /// Device-wide block dispatch interval (GigaThread throughput).
  double block_dispatch_cycles = 4.0;
  /// Store-queue backpressure round trip per store transaction.
  double store_backpressure_cycles = 50.0;
  /// Granularity at which scattered stores consume store-queue slots.
  double store_transaction_bytes = 128.0;
  /// Latency hiding = clamp(base + per_warp * eligible_warps, 1, max):
  /// the affine form keeps the underloaded-block penalty in the 1.5-3x
  /// range the paper's B-Gathering gains imply.
  double latency_hiding_base = 4.0;
  double latency_hiding_per_warp = 4.0;
  /// Global-memory atomic RMW cost without contention.
  double atomic_cycles = 10.0;
  /// Shared-memory atomic cost.
  double shared_atomic_cycles = 2.0;
  /// Cap on residency-driven atomic contention.
  double max_atomic_contention = 16.0;
  /// Per-resident-block in-flight L2 footprint for global accumulation.
  double block_inflight_bytes = 98304.0;
  /// L2 hit rate of streaming (read-once) traffic.
  double streaming_hit_rate = 0.2;
  /// Fraction of cross-block hot reads served by the L1.
  double hot_l1_fraction = 0.75;

  /// Preset matching the paper's System 1 GPU (30 SMs, Pascal).
  static DeviceSpec TitanXp();
  /// Preset matching the paper's System 2 GPU (80 SMs, Volta).
  static DeviceSpec TeslaV100();
  /// Preset matching the paper's System 3 GPU (68 SMs, Turing).
  static DeviceSpec Rtx2080Ti();

  /// Field-wise equality: two specs are the same device only if every
  /// parameter the timing model reads matches.
  bool operator==(const DeviceSpec&) const = default;

  /// Seconds represented by `cycles` at this device's clock.
  double CyclesToSeconds(double cycles) const {
    return cycles / (clock_ghz * 1e9);
  }
};

}  // namespace gpusim
}  // namespace spnet

#endif  // SPNET_GPUSIM_DEVICE_SPEC_H_
