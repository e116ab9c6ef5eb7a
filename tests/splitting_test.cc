#include <gtest/gtest.h>

#include "common/math_util.h"
#include "core/b_splitting.h"
#include "core/workload_classifier.h"
#include "spgemm/workload_model.h"
#include "tests/test_util.h"

namespace spnet {
namespace core {
namespace {

using sparse::CsrMatrix;
using sparse::Index;

struct Fixture {
  CsrMatrix a;
  spgemm::Workload w;
  Classification c;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();

  explicit Fixture(uint64_t seed)
      : a(testing_util::SkewedMatrix(600, 500, seed)),
        w(spgemm::BuildWorkload(a, a)),
        c(Classify(w, ReorganizerConfig{})) {}
};

/// One split pair's fragments [first, last) of the flat plan.
struct SplitRun {
  Index pair;
  size_t first;
  size_t last;
};

std::vector<SplitRun> PairRuns(const SplitPlan& plan) {
  std::vector<SplitRun> runs;
  for (size_t f = 0; f < plan.mapper.size(); ++f) {
    if (runs.empty() || plan.mapper[f] != runs.back().pair) {
      runs.push_back({plan.mapper[f], f, f});
    }
    runs.back().last = f + 1;
  }
  return runs;
}

TEST(SplittingTest, FragmentsPartitionEachColumn) {
  Fixture f(51);
  ASSERT_FALSE(f.c.dominators.empty());
  const SplitPlan plan =
      BuildSplitPlan(f.w, f.c.dominators, ReorganizerConfig{}, f.device);
  ASSERT_EQ(plan.col_begin.size(), plan.mapper.size());
  ASSERT_EQ(plan.col_end.size(), plan.mapper.size());
  const std::vector<SplitRun> runs = PairRuns(plan);
  ASSERT_EQ(runs.size(), f.c.dominators.size());
  for (const SplitRun& run : runs) {
    const int64_t col_nnz = f.w.a_col_nnz[static_cast<size_t>(run.pair)];
    EXPECT_EQ(plan.col_begin[run.first], 0);
    EXPECT_EQ(plan.col_end[run.last - 1], col_nnz);
    for (size_t i = run.first; i < run.last; ++i) {
      EXPECT_LE(plan.col_begin[i], plan.col_end[i]);
      if (i > run.first) {
        EXPECT_EQ(plan.col_begin[i], plan.col_end[i - 1]);
      }
    }
  }
}

TEST(SplittingTest, FragmentsAreEvenWithinOne) {
  Fixture f(53);
  const SplitPlan plan =
      BuildSplitPlan(f.w, f.c.dominators, ReorganizerConfig{}, f.device);
  for (const SplitRun& run : PairRuns(plan)) {
    int64_t min_size = INT64_MAX;
    int64_t max_size = 0;
    for (size_t i = run.first; i < run.last; ++i) {
      const int64_t size = plan.col_end[i] - plan.col_begin[i];
      min_size = std::min(min_size, size);
      max_size = std::max(max_size, size);
    }
    EXPECT_LE(max_size - min_size, 1);
  }
}

TEST(SplittingTest, HeuristicSpreadsPastSmCount) {
  Fixture f(55);
  const SplitPlan plan =
      BuildSplitPlan(f.w, f.c.dominators, ReorganizerConfig{}, f.device);
  for (const SplitRun& run : PairRuns(plan)) {
    const int64_t col_nnz = f.w.a_col_nnz[static_cast<size_t>(run.pair)];
    const int64_t factor = static_cast<int64_t>(run.last - run.first);
    if (col_nnz >= 2 * f.device.num_sms) {
      EXPECT_GE(factor, 2 * f.device.num_sms);
    } else {
      // Never split below one element per fragment.
      EXPECT_LE(factor, col_nnz);
    }
  }
}

TEST(SplittingTest, OverrideForcesUniformFactor) {
  Fixture f(57);
  ReorganizerConfig config;
  config.splitting_factor_override = 8;
  const SplitPlan plan =
      BuildSplitPlan(f.w, f.c.dominators, config, f.device);
  for (const SplitRun& run : PairRuns(plan)) {
    const int64_t col_nnz = f.w.a_col_nnz[static_cast<size_t>(run.pair)];
    EXPECT_EQ(static_cast<int64_t>(run.last - run.first),
              std::min<int64_t>(8, PrevPow2(col_nnz)));
  }
}

TEST(SplittingTest, MapperCoversEveryFragmentInOrder) {
  Fixture f(59);
  ASSERT_FALSE(f.c.dominators.empty());
  const SplitPlan plan =
      BuildSplitPlan(f.w, f.c.dominators, ReorganizerConfig{}, f.device);
  // Walking the mapper once, in dominator order, must consume it exactly:
  // each dominator owns the next 2^n entries.
  size_t cursor = 0;
  for (Index pair : f.c.dominators) {
    const size_t first = cursor;
    while (cursor < plan.mapper.size() && plan.mapper[cursor] == pair) {
      ++cursor;
    }
    const int64_t entries = static_cast<int64_t>(cursor - first);
    EXPECT_GE(entries, 1) << "pair " << pair;
    EXPECT_TRUE(IsPow2(entries)) << "pair " << pair;
  }
  EXPECT_EQ(cursor, plan.mapper.size());
}

TEST(SplittingTest, CopiedElementsAccountsBothVectors) {
  Fixture f(61);
  const SplitPlan plan =
      BuildSplitPlan(f.w, f.c.dominators, ReorganizerConfig{}, f.device);
  int64_t expected = 0;
  for (Index pair : f.c.dominators) {
    expected += f.w.a_col_nnz[static_cast<size_t>(pair)] +
                f.w.b_row_nnz[static_cast<size_t>(pair)];
  }
  EXPECT_EQ(plan.copied_elements, expected);
}

TEST(SplittingTest, EmptyDominatorsYieldEmptyPlan) {
  Fixture f(63);
  const SplitPlan plan =
      BuildSplitPlan(f.w, {}, ReorganizerConfig{}, f.device);
  EXPECT_TRUE(plan.mapper.empty());
  EXPECT_TRUE(plan.col_begin.empty());
  EXPECT_TRUE(plan.col_end.empty());
  EXPECT_EQ(plan.copied_elements, 0);
}

TEST(SplittingTest, BiggerDeviceSplitsFiner) {
  Fixture f(65);
  const SplitPlan titan =
      BuildSplitPlan(f.w, f.c.dominators, ReorganizerConfig{}, f.device);
  const SplitPlan v100 = BuildSplitPlan(f.w, f.c.dominators,
                                        ReorganizerConfig{},
                                        gpusim::DeviceSpec::TeslaV100());
  // 80 SMs need at least as many fragments as 30 SMs.
  EXPECT_GE(v100.mapper.size(), titan.mapper.size());
}

}  // namespace
}  // namespace core
}  // namespace spnet
