#include "gpusim/simulator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/math_util.h"
#include "gpusim/event_heap.h"

namespace spnet {
namespace gpusim {

namespace {

// Coalesced memory transaction size used to convert bytes to dependent
// access chains.
constexpr double kTransactionBytes = 128.0;

constexpr double kEpsilon = 1e-9;

// Off-chip atomic cost factor with `resident_tbs` blocks on every SM.
// Every resident merge block keeps an in-flight footprint (accumulator
// tile + stream buffers) live in the cache; once the union of resident
// footprints outgrows the L2, RMWs start bouncing and the per-op cost
// climbs — the contention that B-Limiting relieves by lowering residency.
// The superlinear exponent models thrash collapse: with linear growth,
// extra residency would exactly cancel the extra contention and
// B-Limiting could never pay off.
double AtomicContention(const DeviceSpec& device, int resident_tbs) {
  const double inflight_window = device.block_inflight_bytes *
                                 static_cast<double>(resident_tbs) *
                                 device.num_sms;
  return std::clamp(
      std::pow(inflight_window / static_cast<double>(device.l2_size), 1.5),
      1.0, device.max_atomic_contention);
}

int EligibleWarps(const ThreadBlockDesc& tb) {
  const int warp = 32;
  const int eff = std::max(tb.effective_threads, 1);
  return static_cast<int>(CeilDiv(eff, warp));
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kExpansion:
      return "expansion";
    case Phase::kMerge:
      return "merge";
    case Phase::kPreprocess:
      return "preprocess";
  }
  return "unknown";
}

int OccupancyBlocksPerSm(const DeviceSpec& device, int threads_per_block,
                         int64_t shared_mem_per_block) {
  if (threads_per_block <= 0) return 0;
  int64_t by_blocks = device.max_blocks_per_sm;
  int64_t by_threads = device.max_threads_per_sm / threads_per_block;
  int64_t by_shmem = shared_mem_per_block > 0
                         ? device.shared_mem_per_sm / shared_mem_per_block
                         : by_blocks;
  int64_t blocks = std::min({by_blocks, by_threads, by_shmem});
  return static_cast<int>(std::max<int64_t>(blocks, 0));
}

Simulator::BlockCost Simulator::CostBlock(const ThreadBlockDesc& tb,
                                          double atomic_contention,
                                          double lsu_backlog,
                                          double issue_backlog,
                                          double dram_backlog) const {
  BlockCost cost;
  const int eligible = EligibleWarps(tb);

  // --- Instruction issue under lock-step SIMT execution. -------------------
  // The SM's warp schedulers form a shared server: the block's own issue
  // demand runs at its own warp-level parallelism, queued behind the SM's
  // outstanding issue backlog (so many co-resident blocks still serialize,
  // while a long-running block alone on the SM gets the full width).
  const double own_issue =
      static_cast<double>(tb.warp_issue_ops) * device_.cpi /
      std::max(1.0,
               std::min<double>(eligible, device_.schedulers_per_sm));
  cost.issue_service = static_cast<double>(tb.warp_issue_ops) * device_.cpi /
                       device_.schedulers_per_sm;
  const double issue_cycles = std::max(own_issue, issue_backlog +
                                                      cost.issue_service);

  // --- Memory service mix. --------------------------------------------------
  // Hot reads are cross-block shared data (kept in cache by construction);
  // the rest of the reads are streaming and only catch the short-term
  // locality hit rate; writes transit the L2 on their way to DRAM.
  const double total_bytes =
      static_cast<double>(tb.bytes_read + tb.bytes_written);
  const double hot_bytes = std::min(
      static_cast<double>(tb.shared_read_bytes), static_cast<double>(tb.bytes_read));
  const double cold_reads = static_cast<double>(tb.bytes_read) - hot_bytes;
  const double writes = static_cast<double>(tb.bytes_written);

  const double l2_cold = device_.streaming_hit_rate * cold_reads;
  const double dram_bytes = (cold_reads - l2_cold) + writes;

  cost.l2_read_bytes = static_cast<int64_t>(hot_bytes + l2_cold);
  cost.l2_write_bytes = static_cast<int64_t>(writes);
  cost.dram_bytes = static_cast<int64_t>(dram_bytes);

  // --- Bandwidth-limited streaming time. ------------------------------------
  // Two shared servers constrain streaming: the SM's load/store pipe
  // (per-SM queue) and the device DRAM (global queue). A block's memory
  // time is its own demand at full server width, queued behind whatever
  // is already outstanding. Hot data is mostly satisfied by the L1 and
  // never transits either.
  const double lsu_bytes = total_bytes - device_.hot_l1_fraction * hot_bytes;
  cost.lsu_service =
      lsu_bytes / std::max(device_.lsu_bw_bytes_per_sm, kEpsilon);
  cost.dram_service =
      dram_bytes / std::max(device_.dram_bw_bytes_per_cycle, kEpsilon);
  const double bw_cycles = std::max(lsu_backlog + cost.lsu_service,
                                    dram_backlog + cost.dram_service);

  // --- Exposed latency after warp-level hiding. ------------------------------
  // Only dependent *reads* stall warps; stores are fire-and-forget through
  // the write pipe. Hot reads come from the L1 at a fraction of the L2
  // latency.
  const double lsu_read_bytes =
      static_cast<double>(tb.bytes_read) - device_.hot_l1_fraction * hot_bytes;
  const double chains = std::max(0.0, lsu_read_bytes) / kTransactionBytes;
  const double read_bytes_total = hot_bytes + cold_reads;
  const double avg_latency =
      read_bytes_total > 0
          ? (0.3 * hot_bytes * device_.l2_latency_cycles +
             l2_cold * device_.l2_latency_cycles +
             (cold_reads - l2_cold) * device_.dram_latency_cycles) /
                read_bytes_total
          : 0.0;
  // Hiding comes from the block's *own* eligible warps: co-resident blocks
  // of the same kernel stall on the same access pattern at the same time,
  // so a block with a single effective warp has little to switch to
  // (the paper's Section III-A2 argument, and what B-Gathering fixes).
  // The affine form keeps the underloaded-block penalty in the 1.5-3x
  // range the paper's B-Gathering gains imply.
  const double hiding = std::clamp(
      device_.latency_hiding_base + device_.latency_hiding_per_warp * eligible,
      1.0, device_.max_latency_hiding);
  // Stores are fire-and-forget only while the store queue has room; a
  // block with few eligible warps stalls on store-queue backpressure the
  // same way it stalls on loads.
  const double store_chains =
      static_cast<double>(tb.bytes_written) / device_.store_transaction_bytes;
  const double latency_cycles =
      (chains * avg_latency + store_chains * device_.store_backpressure_cycles) /
      hiding;

  // --- Atomic serialization (merge accumulators). ----------------------------
  // Conflicting atomics serialize in the L2, under the residency
  // contention of AtomicContention. Atomics flow through the same memory
  // pipe, so they overlap with (rather than add to) the streaming time.
  double atomic_cycles = 0.0;
  if (tb.atomics_in_shared) {
    // On-chip accumulator: fast, contention-free.
    atomic_cycles = static_cast<double>(tb.atomic_ops) *
                    device_.shared_atomic_cycles / eligible;
  } else {
    atomic_cycles = static_cast<double>(tb.atomic_ops) * device_.atomic_cycles /
                    eligible * atomic_contention;
  }

  cost.cycles = device_.block_startup_cycles +
                std::max({issue_cycles, bw_cycles, atomic_cycles}) +
                latency_cycles;
  return cost;
}

KernelStats Simulator::Schedule(const KernelDesc& kernel) const {
  KernelStats stats;
  stats.sm_busy_cycles.assign(static_cast<size_t>(device_.num_sms), 0.0);
  stats.num_blocks = static_cast<int64_t>(kernel.blocks.size());
  if (kernel.blocks.empty()) {
    stats.cycles = 0.0;
    stats.seconds = 0.0;
    return stats;
  }

  struct SmState {
    int resident_tbs = 0;
    int resident_threads = 0;
    int64_t resident_shmem = 0;
    double lsu_busy_until = 0.0;
    double issue_busy_until = 0.0;
  };
  std::vector<SmState> sms(static_cast<size_t>(device_.num_sms));
  // The contention factor depends only on an SM's residency, which
  // can_host keeps within max_blocks_per_sm: tabulate it once per kernel.
  std::vector<double> contention;
  for (int r = 0; r <= device_.max_blocks_per_sm; ++r) {
    contention.push_back(AtomicContention(device_, std::max(r, 1)));
  }

  // Block retirements, earliest first; see EventHeap for the tie order.
  struct Event {
    double time;
    int sm;
    int threads;
    int64_t shmem;
  };
  EventHeap<Event> events;

  size_t next_block = 0;
  double now = 0.0;
  double resident_integral = 0.0;
  double last_time = 0.0;
  int total_resident = 0;
  double dram_busy_until = 0.0;
  double dispatch_busy_until = 0.0;

  auto can_host = [&](const SmState& sm, const ThreadBlockDesc& tb) {
    if (sm.resident_tbs + 1 > device_.max_blocks_per_sm) return false;
    if (sm.resident_threads + tb.threads > device_.max_threads_per_sm) {
      return false;
    }
    if (sm.resident_shmem + tb.shared_mem_bytes > device_.shared_mem_per_sm) {
      return false;
    }
    return true;
  };

  auto place = [&](int sm_id, const ThreadBlockDesc& tb) {
    SmState& sm = sms[static_cast<size_t>(sm_id)];
    sm.resident_tbs++;
    sm.resident_threads += tb.threads;
    sm.resident_shmem += tb.shared_mem_bytes;
    total_resident++;

    const double lsu_backlog = std::max(0.0, sm.lsu_busy_until - now);
    const double issue_backlog = std::max(0.0, sm.issue_busy_until - now);
    const double dram_backlog = std::max(0.0, dram_busy_until - now);
    // The block waits for its slot at the device-wide dispatcher before
    // any of its work starts.
    const double dispatch_wait = std::max(0.0, dispatch_busy_until - now);
    dispatch_busy_until =
        std::max(dispatch_busy_until, now) + device_.block_dispatch_cycles;
    BlockCost cost =
        CostBlock(tb, contention[static_cast<size_t>(sm.resident_tbs)],
                  lsu_backlog, issue_backlog, dram_backlog);
    cost.cycles += dispatch_wait;
    sm.lsu_busy_until = std::max(sm.lsu_busy_until, now) + cost.lsu_service;
    sm.issue_busy_until =
        std::max(sm.issue_busy_until, now) + cost.issue_service;
    dram_busy_until = std::max(dram_busy_until, now) + cost.dram_service;

    stats.sm_busy_cycles[static_cast<size_t>(sm_id)] += cost.cycles;
    stats.num_warps += CeilDiv(std::max(tb.threads, 1), 32);
    stats.useful_lane_ops += tb.useful_lane_ops;
    stats.issued_lane_slots += tb.crit_ops * std::max(tb.threads, 1);
    stats.l2_read_bytes += cost.l2_read_bytes;
    stats.l2_write_bytes += cost.l2_write_bytes;
    stats.dram_bytes += cost.dram_bytes;

    events.push(
        Event{now + cost.cycles, sm_id, tb.threads, tb.shared_mem_bytes});
  };

  auto backfill = [&](int sm_id) {
    while (next_block < kernel.blocks.size()) {
      const ThreadBlockDesc& tb = kernel.blocks[next_block];
      if (!can_host(sms[static_cast<size_t>(sm_id)], tb)) break;
      place(sm_id, tb);
      ++next_block;
    }
  };

  // Initial wave: fill SMs round-robin one block at a time so early blocks
  // spread across the device the way the hardware distributor does.
  bool progress = true;
  while (progress && next_block < kernel.blocks.size()) {
    progress = false;
    for (int s = 0; s < device_.num_sms && next_block < kernel.blocks.size();
         ++s) {
      const ThreadBlockDesc& tb = kernel.blocks[next_block];
      if (!can_host(sms[static_cast<size_t>(s)], tb)) continue;
      place(s, tb);
      ++next_block;
      progress = true;
    }
  }

  double finish_time = 0.0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    resident_integral += total_resident * (ev.time - last_time);
    last_time = ev.time;
    now = ev.time;
    finish_time = std::max(finish_time, ev.time);

    SmState& sm = sms[static_cast<size_t>(ev.sm)];
    sm.resident_tbs--;
    sm.resident_threads -= ev.threads;
    sm.resident_shmem -= ev.shmem;
    total_resident--;

    backfill(ev.sm);
  }

  stats.cycles = finish_time + device_.kernel_launch_cycles;
  stats.seconds = device_.CyclesToSeconds(stats.cycles);
  if (finish_time > 0.0) {
    stats.avg_resident_blocks =
        resident_integral / finish_time / device_.num_sms;
  }
  return stats;
}

Result<KernelStats> Simulator::RunKernel(const KernelDesc& kernel) const {
  for (const ThreadBlockDesc& tb : kernel.blocks) {
    if (tb.threads <= 0) {
      return Status::InvalidArgument("thread block with non-positive size in " +
                                     kernel.label);
    }
    if (tb.threads > device_.max_threads_per_sm) {
      return Status::InvalidArgument("thread block larger than an SM in " +
                                     kernel.label);
    }
    if (tb.shared_mem_bytes > device_.shared_mem_per_sm) {
      return Status::InvalidArgument(
          "block shared memory exceeds SM capacity in " + kernel.label);
    }
  }

  return Schedule(kernel);
}

}  // namespace gpusim
}  // namespace spnet
