#include "gpusim/device_spec.h"

namespace spnet {
namespace gpusim {

DeviceSpec DeviceSpec::TitanXp() {
  DeviceSpec d;
  d.name = "TITAN Xp";
  d.num_sms = 30;
  d.schedulers_per_sm = 4;
  d.max_threads_per_sm = 2048;
  d.max_blocks_per_sm = 32;
  d.shared_mem_per_sm = 96 * 1024;
  d.clock_ghz = 1.582;
  d.l2_size = 3 * 1024 * 1024;
  // 547 GB/s GDDR5X at 1.582 GHz core clock ~= 346 B/cycle; L2 roughly 3x.
  d.dram_bw_bytes_per_cycle = 346.0;
  d.l2_bw_bytes_per_cycle = 1024.0;
  d.lsu_bw_bytes_per_sm = 256.0;
  d.l2_latency_cycles = 220;
  d.dram_latency_cycles = 480;
  d.flops_per_cycle = 2 * 3840;  // 3840 cores, FMA
  return d;
}

DeviceSpec DeviceSpec::TeslaV100() {
  DeviceSpec d;
  d.name = "Tesla V100";
  d.num_sms = 80;
  d.schedulers_per_sm = 4;
  d.max_threads_per_sm = 2048;
  d.max_blocks_per_sm = 32;
  d.shared_mem_per_sm = 96 * 1024;
  d.clock_ghz = 1.380;
  d.l2_size = 6 * 1024 * 1024;
  // 900 GB/s HBM2 at 1.38 GHz ~= 652 B/cycle.
  d.dram_bw_bytes_per_cycle = 652.0;
  d.l2_bw_bytes_per_cycle = 2048.0;
  d.lsu_bw_bytes_per_sm = 256.0;
  d.l2_latency_cycles = 200;
  d.dram_latency_cycles = 440;
  d.flops_per_cycle = 2 * 5120;
  return d;
}

DeviceSpec DeviceSpec::Rtx2080Ti() {
  DeviceSpec d;
  d.name = "RTX 2080 Ti";
  d.num_sms = 68;
  d.schedulers_per_sm = 4;
  d.max_threads_per_sm = 1024;  // Turing halves the per-SM thread limit.
  d.max_blocks_per_sm = 16;
  d.shared_mem_per_sm = 64 * 1024;
  d.clock_ghz = 1.545;
  d.l2_size = 5632 * 1024;
  // 616 GB/s GDDR6 at 1.545 GHz ~= 399 B/cycle.
  d.dram_bw_bytes_per_cycle = 399.0;
  d.l2_bw_bytes_per_cycle = 1536.0;
  d.lsu_bw_bytes_per_sm = 256.0;
  d.l2_latency_cycles = 210;
  d.dram_latency_cycles = 460;
  d.flops_per_cycle = 2 * 4352;
  return d;
}

Result<DeviceSpec> DeviceSpec::FromName(const std::string& name) {
  if (name == "titanxp") return TitanXp();
  if (name == "v100") return TeslaV100();
  if (name == "2080ti") return Rtx2080Ti();
  std::string message = "unknown device ";
  message += name;
  message += " (known: 2080ti, titanxp, v100)";
  return Status::InvalidArgument(message);
}

}  // namespace gpusim
}  // namespace spnet
