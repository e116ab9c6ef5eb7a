#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "common/math_util.h"
#include "core/b_gathering.h"
#include "core/workload_classifier.h"
#include "spgemm/workload_model.h"
#include "tests/test_util.h"
#include "verify/invariants.h"

namespace spnet {
namespace core {
namespace {

using sparse::CsrMatrix;
using sparse::Index;

struct Fixture {
  CsrMatrix a;
  spgemm::Workload w;
  Classification c;

  explicit Fixture(uint64_t seed)
      : a(testing_util::SkewedMatrix(800, 300, seed)),
        w(spgemm::BuildWorkload(a, a)),
        c(Classify(w, ReorganizerConfig{})) {}
};

TEST(GatheringTest, EveryLowPerformerAccountedOnce) {
  Fixture f(71);
  ASSERT_FALSE(f.c.low_performers.empty());
  const GatherPlan plan =
      BuildGatherPlan(f.w, f.c.low_performers, ReorganizerConfig{});
  std::set<Index> seen;
  for (Index p : plan.pairs) {
    EXPECT_TRUE(seen.insert(p).second) << "pair " << p << " twice";
  }
  for (Index p : plan.ungathered) {
    EXPECT_TRUE(seen.insert(p).second) << "pair " << p << " twice";
  }
  EXPECT_EQ(seen.size(), f.c.low_performers.size());
  EXPECT_EQ(plan.gathered_pairs(),
            static_cast<int64_t>(f.c.low_performers.size()) -
                static_cast<int64_t>(plan.ungathered.size()));
}

TEST(GatheringTest, QuotaCoversEffectiveThreads) {
  Fixture f(73);
  const GatherPlan plan =
      BuildGatherPlan(f.w, f.c.low_performers, ReorganizerConfig{});
  for (size_t i = 0; i < plan.num_blocks(); ++i) {
    const int micro_threads = plan.micro_threads[i];
    EXPECT_TRUE(IsPow2(micro_threads));
    for (Index p : plan.block_pairs(i)) {
      const int64_t eff = f.w.b_row_nnz[static_cast<size_t>(p)];
      EXPECT_LE(eff, micro_threads);
      EXPECT_GT(2 * eff, micro_threads)
          << "pair " << p << " belongs in a smaller bin";
    }
  }
}

TEST(GatheringTest, BlocksRespectCapacity) {
  Fixture f(75);
  ReorganizerConfig config;
  const GatherPlan plan = BuildGatherPlan(f.w, f.c.low_performers, config);
  for (size_t i = 0; i < plan.num_blocks(); ++i) {
    EXPECT_LE(static_cast<int>(plan.block_pairs(i).size()) *
                  plan.micro_threads[i],
              config.block_size);
    EXPECT_GE(plan.block_pairs(i).size(), 1u);
  }
}

TEST(GatheringTest, MembersSortedByWorkWithinBlock) {
  Fixture f(77);
  const GatherPlan plan =
      BuildGatherPlan(f.w, f.c.low_performers, ReorganizerConfig{});
  for (size_t b = 0; b < plan.num_blocks(); ++b) {
    const std::span<const Index> pairs = plan.block_pairs(b);
    for (size_t i = 1; i < pairs.size(); ++i) {
      EXPECT_GE(f.w.a_col_nnz[static_cast<size_t>(pairs[i - 1])],
                f.w.a_col_nnz[static_cast<size_t>(pairs[i])]);
    }
  }
}

TEST(GatheringTest, SingletonBinsStayUngathered) {
  // One pair with 2 effective threads: nothing to combine with.
  sparse::CooMatrix coo(64, 64);
  coo.Add(0, 1, 1.0);  // column 1 of A gets one entry
  coo.Add(1, 2, 1.0);
  coo.Add(1, 3, 1.0);  // row 1 of B has 2 entries -> pair 1 eff=2
  auto a = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(a.ok());
  const spgemm::Workload w = spgemm::BuildWorkload(*a, *a);
  const Classification c = Classify(w, ReorganizerConfig{});
  const GatherPlan plan =
      BuildGatherPlan(w, c.low_performers, ReorganizerConfig{});
  EXPECT_EQ(plan.num_blocks(), 0u);
  EXPECT_EQ(plan.ungathered.size(), c.low_performers.size());
}

TEST(GatheringTest, EmptyInputYieldsEmptyPlan) {
  Fixture f(79);
  const GatherPlan plan = BuildGatherPlan(f.w, {}, ReorganizerConfig{});
  EXPECT_EQ(plan.num_blocks(), 0u);
  EXPECT_TRUE(plan.ungathered.empty());
  EXPECT_EQ(plan.gathered_pairs(), 0);
}

TEST(GatheringTest, SmallerBlockSizePacksLess) {
  Fixture f(81);
  ReorganizerConfig big;
  big.block_size = 256;
  ReorganizerConfig small;
  small.block_size = 64;
  const GatherPlan pb = BuildGatherPlan(f.w, f.c.low_performers, big);
  const GatherPlan ps = BuildGatherPlan(f.w, f.c.low_performers, small);
  if (pb.gathered_pairs() > 0 && ps.gathered_pairs() > 0) {
    EXPECT_GE(ps.num_blocks(), pb.num_blocks());
  }
  for (size_t i = 0; i < ps.num_blocks(); ++i) {
    EXPECT_LE(static_cast<int>(ps.block_pairs(i).size()) *
                  ps.micro_threads[i],
              64);
  }
}

/// Reference plan from a comparator sort per bin: bins by lane quota, each
/// sorted by a_col_nnz descending with ascending pairs on ties, cut into
/// capacity-sized blocks.
GatherPlan ComparatorReference(const spgemm::Workload& w,
                               const std::vector<Index>& low_performers,
                               int block_size) {
  GatherPlan ref;
  std::vector<Index> bins[6];
  for (Index pair : low_performers) {
    const int64_t eff = w.b_row_nnz[static_cast<size_t>(pair)];
    if (eff <= 0) continue;
    const int bin = Log2Floor(NextPow2(eff));
    if (bin >= 6) {
      ref.ungathered.push_back(pair);
    } else {
      bins[bin].push_back(pair);
    }
  }
  for (int n = 0; n < 6; ++n) {
    std::vector<Index>& bin = bins[n];
    if (bin.empty()) continue;
    const int capacity = std::max(1, block_size / (1 << n));
    if (capacity <= 1 || bin.size() < 2) {
      ref.ungathered.insert(ref.ungathered.end(), bin.begin(), bin.end());
      continue;
    }
    std::sort(bin.begin(), bin.end(), [&](Index x, Index y) {
      const int64_t wx = w.a_col_nnz[static_cast<size_t>(x)];
      const int64_t wy = w.a_col_nnz[static_cast<size_t>(y)];
      if (wx != wy) return wx > wy;
      return x < y;
    });
    for (size_t begin = 0; begin < bin.size();
         begin += static_cast<size_t>(capacity)) {
      const size_t end =
          std::min(bin.size(), begin + static_cast<size_t>(capacity));
      ref.pairs.insert(ref.pairs.end(), bin.begin() + begin,
                       bin.begin() + end);
      ref.block_offsets.push_back(static_cast<int64_t>(ref.pairs.size()));
      ref.micro_threads.push_back(1 << n);
    }
  }
  return ref;
}

void ExpectSamePlan(const GatherPlan& got, const GatherPlan& want) {
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.block_offsets, want.block_offsets);
  EXPECT_EQ(got.micro_threads, want.micro_threads);
  EXPECT_EQ(got.ungathered, want.ungathered);
}

TEST(GatheringTest, FlatPlanMatchesComparatorSort) {
  for (uint64_t seed : {71, 72, 73, 74, 75}) {
    for (int block_size : {32, 64, 256}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", block size " +
                   std::to_string(block_size));
      ReorganizerConfig config;
      config.block_size = block_size;
      const CsrMatrix a = testing_util::SkewedMatrix(800, 300, seed);
      const spgemm::Workload w = spgemm::BuildWorkload(a, a);
      const Classification classes = Classify(w, config);
      ASSERT_FALSE(classes.low_performers.empty());
      ExpectSamePlan(
          BuildGatherPlan(w, classes.low_performers, config),
          ComparatorReference(w, classes.low_performers, block_size));
    }
  }
}

TEST(GatheringTest, WorkNearRowCountPlans) {
  // Column 0 of A holds every row but the last, so pair 0's a_col_nnz is
  // a.rows() - 1, the largest key the counting sort can meet. Pairs 0..9
  // all have 2 effective threads and share one bin.
  constexpr Index kRows = 4096;
  sparse::CooMatrix ca(kRows, 16);
  for (Index r = 0; r + 1 < kRows; ++r) ca.Add(r, 0, 1.0);
  for (Index c = 1; c < 10; ++c) {
    for (Index r = 0; r < c; ++r) ca.Add(r, c, 1.0);
  }
  sparse::CooMatrix cb(16, 8);
  for (Index r = 0; r < 10; ++r) {
    cb.Add(r, 0, 1.0);
    cb.Add(r, 1, 1.0);
  }
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  ASSERT_TRUE(a.ok() && b.ok());
  ReorganizerConfig config;
  config.alpha = 1e6;  // no dominators: pair 0 stays a low performer
  const spgemm::Workload w = spgemm::BuildWorkload(*a, *b);
  ASSERT_EQ(w.a_col_nnz[0], kRows - 1);
  const Classification c = Classify(w, config);
  ASSERT_EQ(c.low_performers.size(), 10u);
  const GatherPlan plan = BuildGatherPlan(w, c.low_performers, config);
  ExpectSamePlan(plan, ComparatorReference(w, c.low_performers, 256));
  ASSERT_EQ(plan.num_blocks(), 1u);
  EXPECT_EQ(plan.micro_threads[0], 2);
  EXPECT_EQ(plan.pairs,
            (std::vector<Index>{0, 9, 8, 7, 6, 5, 4, 3, 2, 1}));
  EXPECT_TRUE(verify::CheckGatherPlan(w, c.low_performers, plan,
                                      config.block_size)
                  .ok());
}

}  // namespace
}  // namespace core
}  // namespace spnet
