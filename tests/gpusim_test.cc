#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "gpusim/device_spec.h"
#include "gpusim/event_heap.h"
#include "gpusim/kernel_desc.h"
#include "gpusim/kernel_stats.h"
#include "gpusim/simulator.h"

namespace spnet {
namespace gpusim {
namespace {

ThreadBlockDesc UniformBlock(int threads, int64_t ops_per_thread,
                             int64_t bytes) {
  ThreadBlockDesc tb;
  tb.threads = threads;
  tb.effective_threads = threads;
  tb.crit_ops = ops_per_thread;
  tb.warp_issue_ops = (threads / 32) * ops_per_thread;
  tb.useful_lane_ops = threads * ops_per_thread;
  tb.bytes_read = bytes / 2;
  tb.bytes_written = bytes - bytes / 2;
  tb.shared_mem_bytes = 1024;
  return tb;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

KernelDesc UniformKernel(int blocks, int threads, int64_t ops,
                         int64_t bytes) {
  KernelDesc k;
  k.label = "uniform";
  for (int i = 0; i < blocks; ++i) {
    k.blocks.push_back(UniformBlock(threads, ops, bytes));
  }
  return k;
}

TEST(DeviceSpecTest, PresetsMatchTableOne) {
  EXPECT_EQ(DeviceSpec::TitanXp().num_sms, 30);
  EXPECT_EQ(DeviceSpec::TeslaV100().num_sms, 80);
  EXPECT_EQ(DeviceSpec::Rtx2080Ti().num_sms, 68);
  EXPECT_NEAR(DeviceSpec::TitanXp().clock_ghz, 1.582, 1e-9);
  EXPECT_NEAR(DeviceSpec::TeslaV100().clock_ghz, 1.380, 1e-9);
  EXPECT_NEAR(DeviceSpec::Rtx2080Ti().clock_ghz, 1.545, 1e-9);
}

TEST(DeviceSpecTest, CyclesToSeconds) {
  const DeviceSpec d = DeviceSpec::TitanXp();
  EXPECT_NEAR(d.CyclesToSeconds(1.582e9), 1.0, 1e-9);
}

TEST(OccupancyTest, LimitedByEachResource) {
  DeviceSpec d = DeviceSpec::TitanXp();
  // Thread-limited: 2048 / 256 = 8.
  EXPECT_EQ(OccupancyBlocksPerSm(d, 256, 1024), 8);
  // Block-limited: tiny blocks hit max_blocks_per_sm.
  EXPECT_EQ(OccupancyBlocksPerSm(d, 32, 0), d.max_blocks_per_sm);
  // Shared-memory-limited: 96KB / 28KB = 3 (the B-Limiting mechanism).
  EXPECT_EQ(OccupancyBlocksPerSm(d, 256, 28 * 1024), 3);
  // Degenerate.
  EXPECT_EQ(OccupancyBlocksPerSm(d, 0, 0), 0);
}

TEST(SimulatorTest, EmptyKernelIsFree) {
  Simulator sim(DeviceSpec::TitanXp());
  KernelDesc k;
  auto s = sim.RunKernel(k);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->cycles, 0.0);
}

TEST(SimulatorTest, RejectsInvalidBlocks) {
  Simulator sim(DeviceSpec::TitanXp());
  KernelDesc k;
  ThreadBlockDesc tb = UniformBlock(256, 10, 1024);
  tb.threads = 0;
  k.blocks.push_back(tb);
  EXPECT_FALSE(sim.RunKernel(k).ok());

  KernelDesc k2;
  ThreadBlockDesc big = UniformBlock(256, 10, 1024);
  big.shared_mem_bytes = 1 << 30;
  k2.blocks.push_back(big);
  EXPECT_FALSE(sim.RunKernel(k2).ok());
}

TEST(SimulatorTest, MoreWorkTakesLonger) {
  Simulator sim(DeviceSpec::TitanXp());
  auto small = sim.RunKernel(UniformKernel(100, 256, 100, 1 << 12));
  auto large = sim.RunKernel(UniformKernel(100, 256, 10000, 1 << 16));
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->cycles, small->cycles);
}

TEST(SimulatorTest, DeterministicRuns) {
  Simulator sim(DeviceSpec::TitanXp());
  const KernelDesc k = UniformKernel(500, 256, 300, 1 << 14);
  auto a = sim.RunKernel(k);
  auto b = sim.RunKernel(k);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->cycles, b->cycles);
  EXPECT_EQ(a->l2_read_bytes, b->l2_read_bytes);
}

TEST(SimulatorTest, UniformKernelBalancesSms) {
  Simulator sim(DeviceSpec::TitanXp());
  auto s = sim.RunKernel(UniformKernel(3000, 256, 500, 1 << 14));
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s->Lbi(), 0.9);
}

TEST(SimulatorTest, OneGiantBlockRuinsLoadBalance) {
  Simulator sim(DeviceSpec::TitanXp());
  KernelDesc k = UniformKernel(300, 256, 100, 1 << 12);
  // One dominator with 1000x the work, scheduled mid-kernel.
  ThreadBlockDesc dominator = UniformBlock(256, 100000, 64 << 20);
  k.blocks.insert(k.blocks.begin() + 150, dominator);
  auto s = sim.RunKernel(k);
  ASSERT_TRUE(s.ok());
  EXPECT_LT(s->Lbi(), 0.5);
}

TEST(SimulatorTest, SplittingADominatorRestoresBalanceAndSpeed) {
  Simulator sim(DeviceSpec::TitanXp());
  // Unsplit: one block carrying all the work plus light filler.
  KernelDesc unsplit = UniformKernel(64, 256, 50, 1 << 10);
  unsplit.blocks.push_back(UniformBlock(256, 64000, 256 << 20));
  // Split: the same heavy work divided over 64 blocks.
  KernelDesc split = UniformKernel(64, 256, 50, 1 << 10);
  for (int i = 0; i < 64; ++i) {
    split.blocks.push_back(UniformBlock(256, 1000, 4 << 20));
  }
  auto su = sim.RunKernel(unsplit);
  auto ss = sim.RunKernel(split);
  ASSERT_TRUE(su.ok() && ss.ok());
  EXPECT_LT(ss->cycles, su->cycles);
  EXPECT_GT(ss->Lbi(), su->Lbi());
}

TEST(SimulatorTest, SyncStallsReflectIdleLanes) {
  Simulator sim(DeviceSpec::TitanXp());
  // Underloaded: 2 effective lanes of 32.
  KernelDesc under;
  for (int i = 0; i < 64; ++i) {
    ThreadBlockDesc tb;
    tb.threads = 32;
    tb.effective_threads = 2;
    tb.crit_ops = 100;
    tb.warp_issue_ops = 100;
    tb.useful_lane_ops = 200;
    tb.bytes_read = 1024;
    tb.bytes_written = 2048;
    tb.shared_mem_bytes = 512;
    under.blocks.push_back(tb);
  }
  auto s_under = sim.RunKernel(under);
  auto s_full = sim.RunKernel(UniformKernel(64, 32, 100, 3072));
  ASSERT_TRUE(s_under.ok() && s_full.ok());
  EXPECT_GT(s_under->SyncStallFraction(), 0.9);
  EXPECT_LT(s_full->SyncStallFraction(), 0.05);
}

TEST(SimulatorTest, GatheredBlocksBeatUnderloadedBlocks) {
  Simulator sim(DeviceSpec::TitanXp());
  // 16384 underloaded, iteration-heavy blocks (2 effective lanes each):
  // each issues its whole loop from a single warp.
  KernelDesc solo;
  for (int i = 0; i < 16384; ++i) {
    ThreadBlockDesc tb;
    tb.threads = 32;
    tb.effective_threads = 2;
    tb.crit_ops = 512;
    tb.warp_issue_ops = 512;
    tb.useful_lane_ops = 1024;
    tb.bytes_read = 512;
    tb.bytes_written = 256;
    tb.shared_mem_bytes = 512;
    solo.blocks.push_back(tb);
  }
  // ...vs the same work packed 128 micro-blocks per 256-thread block:
  // 16 micro-blocks share each warp, so the lock-step iterations are
  // issued once for all of them.
  KernelDesc gathered;
  for (int i = 0; i < 128; ++i) {
    ThreadBlockDesc tb;
    tb.threads = 256;
    tb.effective_threads = 256;
    tb.crit_ops = 512;
    tb.warp_issue_ops = 8 * 512;
    tb.useful_lane_ops = 128 * 1024;
    tb.bytes_read = 128 * 512;
    tb.bytes_written = 128 * 256;
    tb.shared_mem_bytes = 1024;
    gathered.blocks.push_back(tb);
  }
  auto s_solo = sim.RunKernel(solo);
  auto s_gathered = sim.RunKernel(gathered);
  ASSERT_TRUE(s_solo.ok() && s_gathered.ok());
  EXPECT_LT(s_gathered->cycles, s_solo->cycles);
}

TEST(SimulatorTest, SharedMemoryLimitsResidency) {
  Simulator sim(DeviceSpec::TitanXp());
  KernelDesc lean = UniformKernel(600, 256, 200, 1 << 14);
  KernelDesc fat = lean;
  for (auto& tb : fat.blocks) tb.shared_mem_bytes = 28 * 1024;
  auto s_lean = sim.RunKernel(lean);
  auto s_fat = sim.RunKernel(fat);
  ASSERT_TRUE(s_lean.ok() && s_fat.ok());
  // Fewer resident blocks per SM -> lower average residency.
  EXPECT_LT(s_fat->avg_resident_blocks, s_lean->avg_resident_blocks);
}

TEST(SimulatorTest, LimitingReducesGlobalAtomicCost) {
  Simulator sim(DeviceSpec::TitanXp());
  // Long-row merge blocks with global atomics.
  auto make_kernel = [&](int64_t extra_shmem) {
    KernelDesc k;
    for (int i = 0; i < 300; ++i) {
      ThreadBlockDesc tb = UniformBlock(256, 2000, 1 << 20);
      tb.atomic_ops = 500000;
      tb.atomics_in_shared = false;
      tb.shared_mem_bytes = 4096 + extra_shmem;
      k.blocks.push_back(tb);
    }
    return k;
  };
  auto dense = sim.RunKernel(make_kernel(0));
  auto limited = sim.RunKernel(make_kernel(4 * 6144));
  ASSERT_TRUE(dense.ok() && limited.ok());
  EXPECT_LT(limited->cycles, dense->cycles);
}

TEST(SimulatorTest, SharedAtomicsCheaperThanGlobal) {
  Simulator sim(DeviceSpec::TitanXp());
  KernelDesc global_k;
  KernelDesc shared_k;
  for (int i = 0; i < 300; ++i) {
    ThreadBlockDesc tb = UniformBlock(256, 2000, 1 << 18);
    tb.atomic_ops = 400000;
    tb.atomics_in_shared = false;
    global_k.blocks.push_back(tb);
    tb.atomics_in_shared = true;
    shared_k.blocks.push_back(tb);
  }
  auto g = sim.RunKernel(global_k);
  auto s = sim.RunKernel(shared_k);
  ASSERT_TRUE(g.ok() && s.ok());
  EXPECT_LT(s->cycles, g->cycles);
}

TEST(SimulatorTest, HotReadsCheaperThanCold) {
  Simulator sim(DeviceSpec::TitanXp());
  KernelDesc cold = UniformKernel(300, 256, 1000, 0);
  KernelDesc hot = cold;
  for (auto& tb : cold.blocks) {
    tb.bytes_read = 1 << 18;
    tb.shared_read_bytes = 0;
  }
  for (auto& tb : hot.blocks) {
    tb.bytes_read = 1 << 18;
    tb.shared_read_bytes = 1 << 18;
  }
  auto sc = sim.RunKernel(cold);
  auto sh = sim.RunKernel(hot);
  ASSERT_TRUE(sc.ok() && sh.ok());
  EXPECT_LT(sh->cycles, sc->cycles);
  EXPECT_GT(sh->l2_read_bytes, sc->l2_read_bytes);
  EXPECT_LT(sh->dram_bytes, sc->dram_bytes);
}

TEST(SimulatorTest, MoreSmsFinishFaster) {
  const KernelDesc k = UniformKernel(2000, 256, 500, 1 << 14);
  Simulator titan(DeviceSpec::TitanXp());
  Simulator v100(DeviceSpec::TeslaV100());
  auto st = titan.RunKernel(k);
  auto sv = v100.RunKernel(k);
  ASSERT_TRUE(st.ok() && sv.ok());
  EXPECT_LT(sv->cycles, st->cycles);
}

struct HeapEvent {
  double time;
  int64_t id;
  bool operator>(const HeapEvent& other) const { return time > other.time; }
};

/// The retirement heap pops in exactly the order of libstdc++'s priority
/// queue, ties included: 100k random interleaved pushes and pops over 16
/// distinct times, so nearly every comparison meets an equal time, and
/// the id payload shows which of the tied events came out. The run starts
/// from an empty heap and drains back to empty more than once.
TEST(EventHeapTest, PopsInPriorityQueueOrder) {
  EventHeap<HeapEvent> heap;
  std::priority_queue<HeapEvent, std::vector<HeapEvent>,
                      std::greater<HeapEvent>>
      reference;
  std::mt19937_64 rng(7);
  int64_t next_id = 0;
  int drained = 0;
  auto pop_both = [&] {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.top().id, reference.top().id) << "at id " << next_id;
    EXPECT_EQ(heap.top().time, reference.top().time);
    heap.pop();
    reference.pop();
  };
  for (int step = 0; step < 100000; ++step) {
    // Grow while early in each phase of 10k steps, shrink late in it, so
    // the size sweeps from empty to thousands and back.
    const bool growing = (step / 5000) % 2 == 0;
    const bool push = reference.empty() || rng() % 8 < (growing ? 6u : 2u);
    if (push) {
      const HeapEvent event{static_cast<double>(rng() % 16), next_id++};
      heap.push(event);
      reference.push(event);
    } else {
      pop_both();
      if (reference.empty()) ++drained;
    }
    ASSERT_EQ(heap.empty(), reference.empty());
  }
  while (!reference.empty()) pop_both();
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(drained, 1);
}

/// Uniform blocks retire at equal simulated cycles over and over, and
/// the order in which tied retirements backfill their SMs decides which
/// SM gets the next block. Pins a uniform kernel's cycles and per-SM busy
/// time bit for bit on all three device presets, so a change to the
/// retirement heap's tie order shows here.
TEST(SimulatorTest, TiedRetirementBitsArePinned) {
  struct Pin {
    DeviceSpec device;
    uint64_t cycles_bits;
    uint64_t sm_busy_hash;
  };
  const Pin pins[] = {
      {DeviceSpec::TitanXp(), 0x413263ec00000000ULL, 0xd579f3d2d698384bULL},
      {DeviceSpec::TeslaV100(), 0x411c251000000000ULL,
       0x9239563b67d3af43ULL},
      {DeviceSpec::Rtx2080Ti(), 0x4120a22000000000ULL,
       0x519c73b9667da433ULL},
  };
  const KernelDesc kernel = UniformKernel(3000, 256, 500, 1 << 14);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.device.name);
    auto stats = Simulator(pin.device).RunKernel(kernel);
    ASSERT_TRUE(stats.ok());
    uint64_t hash = 1469598103934665603ULL;
    for (double busy : stats->sm_busy_cycles) {
      hash = (hash ^ Bits(busy)) * 1099511628211ULL;
    }
    EXPECT_EQ(Bits(stats->cycles), pin.cycles_bits);
    EXPECT_EQ(hash, pin.sm_busy_hash);
  }
}

TEST(KernelStatsTest, LbiEdgeCases) {
  KernelStats s;
  EXPECT_DOUBLE_EQ(s.Lbi(), 1.0);  // no SMs recorded
  s.sm_busy_cycles = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(s.Lbi(), 1.0);  // idle device
  s.sm_busy_cycles = {100.0, 100.0, 100.0, 100.0};
  EXPECT_DOUBLE_EQ(s.Lbi(), 1.0);
  s.sm_busy_cycles = {100.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(s.Lbi(), 0.25);
}

TEST(KernelStatsTest, SyncStallFraction) {
  KernelStats s;
  EXPECT_DOUBLE_EQ(s.SyncStallFraction(), 0.0);
  s.issued_lane_slots = 1000;
  s.useful_lane_ops = 250;
  EXPECT_DOUBLE_EQ(s.SyncStallFraction(), 0.75);
}

TEST(KernelStatsTest, ThroughputConversions) {
  KernelStats s;
  s.seconds = 1e-3;
  s.l2_read_bytes = 2'000'000'000;
  s.l2_write_bytes = 1'000'000'000;
  EXPECT_NEAR(s.L2ReadThroughputGBs(), 2000.0, 1e-6);
  EXPECT_NEAR(s.L2WriteThroughputGBs(), 1000.0, 1e-6);
}

}  // namespace
}  // namespace gpusim
}  // namespace spnet
