#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/suite.h"
#include "datasets/generators.h"
#include "spgemm/algorithm.h"
#include "spgemm/functional.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"
#include "tests/test_util.h"

namespace spnet {
namespace spgemm {
namespace {

using sparse::CsrMatrix;

// One generated input per row: the functional correctness sweep runs
// every algorithm against the reference on each of these.
struct MatrixCase {
  const char* name;
  CsrMatrix (*make)(uint64_t seed);
};

CsrMatrix MakeUniform(uint64_t seed) {
  return testing_util::RandomMatrix(120, 120, 0.04, seed);
}
CsrMatrix MakeSkewed(uint64_t seed) {
  return testing_util::SkewedMatrix(150, 90, seed);
}
CsrMatrix MakeRmat(uint64_t seed) {
  datasets::RmatParams p;
  p.scale = 8;
  p.edge_count = 1200;
  p.seed = seed;
  auto m = datasets::GenerateRmat(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeBanded(uint64_t seed) {
  datasets::QuasiRegularParams p;
  p.n = 200;
  p.nnz = 2400;
  p.seed = seed;
  auto m = datasets::GenerateQuasiRegular(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeEmptyRows(uint64_t seed) {
  // Half the rows empty; exercises zero-work pairs.
  Rng rng(seed);
  sparse::CooMatrix coo(100, 100);
  for (int r = 0; r < 100; r += 2) {
    for (int k = 0; k < 4; ++k) {
      coo.Add(r, static_cast<sparse::Index>(rng.NextBounded(100)), 1.0);
    }
  }
  auto m = CsrMatrix::FromCoo(coo);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}

const MatrixCase kCases[] = {
    {"uniform", MakeUniform},  {"skewed", MakeSkewed},
    {"rmat", MakeRmat},        {"banded", MakeBanded},
    {"empty_rows", MakeEmptyRows},
};

using CaseAlgParam = std::tuple<int, int>;

const char* const kAlgNames[] = {"row_product", "outer_product", "cusparse",
                                 "cusp",        "bhsparse",      "mkl",
                                 "block_reorganizer"};

class AlgorithmCorrectnessTest
    : public ::testing::TestWithParam<CaseAlgParam> {};

TEST_P(AlgorithmCorrectnessTest, SquareMatchesReference) {
  const auto [case_idx, alg_idx] = GetParam();
  const CsrMatrix a = kCases[case_idx].make(1000 + case_idx);
  const auto algorithms = core::MakeAllAlgorithms();
  ASSERT_LT(static_cast<size_t>(alg_idx), algorithms.size());
  const auto& alg = algorithms[static_cast<size_t>(alg_idx)];

  auto expected = sparse::ReferenceSpGemm(a, a);
  ASSERT_TRUE(expected.ok());
  auto got = alg->Compute(a, a);
  ASSERT_TRUE(got.ok()) << alg->name() << ": " << got.status().ToString();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9))
      << alg->name() << " on " << kCases[case_idx].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllCases, AlgorithmCorrectnessTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 7)),
    [](const ::testing::TestParamInfo<CaseAlgParam>& param_info) {
      return std::string(kCases[std::get<0>(param_info.param)].name) + "_" +
             kAlgNames[std::get<1>(param_info.param)];
    });

class RectangularProductTest : public ::testing::TestWithParam<int> {};

TEST_P(RectangularProductTest, AbMatchesReference) {
  const CsrMatrix a = testing_util::RandomMatrix(70, 110, 0.05, 7);
  const CsrMatrix b = testing_util::RandomMatrix(110, 50, 0.06, 8);
  const auto algorithms = core::MakeAllAlgorithms();
  const auto& alg = algorithms[static_cast<size_t>(GetParam())];
  auto expected = sparse::ReferenceSpGemm(a, b);
  auto got = alg->Compute(a, b);
  ASSERT_TRUE(expected.ok() && got.ok()) << alg->name();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9)) << alg->name();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RectangularProductTest,
                         ::testing::Range(0, 7));

TEST(FunctionalTest, RowAndOuterAgreeOnEmptyMatrix) {
  sparse::CooMatrix coo(16, 16);
  auto a = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(a.ok());
  auto row = RowProductExpandMerge(*a, *a);
  auto outer = OuterProductExpandMerge(*a, *a);
  ASSERT_TRUE(row.ok() && outer.ok());
  EXPECT_EQ(row->nnz(), 0);
  EXPECT_EQ(outer->nnz(), 0);
}

TEST(MergeChatInPlaceTest, EmptyShapes) {
  auto none = MergeChatInPlace(0, 0, {0}, {}, {});
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->rows(), 0);
  EXPECT_EQ(none->cols(), 0);
  EXPECT_EQ(none->ptr(), std::vector<sparse::Offset>({0}));

  auto no_cols = MergeChatInPlace(2, 0, {0, 0, 0}, {}, {});
  ASSERT_TRUE(no_cols.ok()) << no_cols.status().ToString();
  EXPECT_EQ(no_cols->cols(), 0);
  EXPECT_EQ(no_cols->ptr(), std::vector<sparse::Offset>({0, 0, 0}));
}

TEST(MergeChatInPlaceTest, EmptyRowsKeepTheirOffsets) {
  auto c = MergeChatInPlace(4, 5, {0, 0, 2, 2, 3}, {1, 1, 4},
                            {1.0, 2.0, 5.0});
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->ptr(), std::vector<sparse::Offset>({0, 0, 1, 1, 2}));
  EXPECT_EQ(c->indices(), std::vector<sparse::Index>({1, 4}));
  EXPECT_EQ(c->values(), std::vector<sparse::Value>({3.0, 5.0}));
}

TEST(MergeChatInPlaceTest, AllDuplicatesMergeToOneEntryInElementOrder) {
  auto c = MergeChatInPlace(1, 4, {0, 3}, {3, 3, 3}, {0.1, 0.2, 0.3});
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->ptr(), std::vector<sparse::Offset>({0, 1}));
  EXPECT_EQ(c->indices(), std::vector<sparse::Index>({3}));
  // Left to right: (0.1 + 0.2) + 0.3, which differs from 0.1 + (0.2 + 0.3).
  EXPECT_EQ(c->values(), std::vector<sparse::Value>({(0.1 + 0.2) + 0.3}));
}

TEST(MergeChatInPlaceTest, NoDuplicatesMovesNothing) {
  const std::vector<sparse::Offset> ptr = {0, 3, 5};
  const std::vector<sparse::Index> cols = {2, 0, 1, 1, 2};
  const std::vector<sparse::Value> vals = {1.0, 2.0, 3.0, 4.0, 5.0};
  auto c = MergeChatInPlace(2, 3, ptr, cols, vals);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->ptr(), ptr);
  EXPECT_EQ(c->indices(), cols);
  EXPECT_EQ(c->values(), vals);
}

TEST(MergeChatInPlaceTest, OutputMayOverlapItsOwnChatRegion) {
  // Row 0 shrinks from 2 entries to 1, so row 1 (C-hat [2, 6)) is written
  // to [1, 4), over its own first two entries.
  auto c = MergeChatInPlace(2, 4, {0, 2, 6}, {0, 0, 1, 2, 3, 1},
                            {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->ptr(), std::vector<sparse::Offset>({0, 1, 4}));
  EXPECT_EQ(c->indices(), std::vector<sparse::Index>({0, 1, 2, 3}));
  EXPECT_EQ(c->values(), std::vector<sparse::Value>({3.0, 9.0, 4.0, 5.0}));
}

TEST(MergeChatInPlaceTest, MalformedLayoutRejected) {
  // Wrong ptr length, decreasing ptr, ptr/entry count mismatch, and
  // column/value count mismatch.
  EXPECT_FALSE(MergeChatInPlace(2, 3, {0, 1}, {0}, {1.0}).ok());
  EXPECT_FALSE(MergeChatInPlace(2, 3, {0, 2, 1}, {0}, {1.0}).ok());
  EXPECT_FALSE(MergeChatInPlace(1, 3, {0, 2}, {0}, {1.0}).ok());
  EXPECT_FALSE(MergeChatInPlace(1, 3, {0, 1}, {0}, {1.0, 2.0}).ok());
}

TEST(FunctionalTest, DimensionMismatchRejectedEverywhere) {
  const CsrMatrix a = testing_util::RandomMatrix(10, 12, 0.3, 1);
  const CsrMatrix b = testing_util::RandomMatrix(10, 12, 0.3, 2);
  for (const auto& alg : core::MakeAllAlgorithms()) {
    EXPECT_FALSE(alg->Compute(a, b).ok()) << alg->name();
    EXPECT_FALSE(alg->Plan(a, b, gpusim::DeviceSpec::TitanXp()).ok())
        << alg->name();
  }
}

TEST(PlanTest, AllAlgorithmsProduceConsistentFlops) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 90);
  const int64_t flops = sparse::SpGemmFlops(a, a);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto plan = alg->Plan(a, a, device);
    ASSERT_TRUE(plan.ok()) << alg->name();
    EXPECT_EQ(plan->flops, flops) << alg->name();
    EXPECT_GT(plan->output_nnz, 0) << alg->name();
  }
}

TEST(MeasureTest, ProducesPositiveTimings) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 91);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto m = Measure(*alg, a, a, device);
    ASSERT_TRUE(m.ok()) << alg->name();
    EXPECT_GT(m->total_seconds, 0.0) << alg->name();
    EXPECT_GT(m->Gflops(), 0.0) << alg->name();
    EXPECT_GE(m->total_seconds, m->stats.seconds) << alg->name();
  }
}

TEST(MeasureTest, PhaseSplitCoversDeviceTime) {
  const CsrMatrix a = testing_util::SkewedMatrix(300, 200, 92);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const auto outer = MakeOuterProduct();
  auto m = Measure(*outer, a, a, device);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->expansion.cycles, 0.0);
  EXPECT_GT(m->merge.cycles, 0.0);
  EXPECT_NEAR(m->expansion.cycles + m->merge.cycles, m->stats.cycles,
              1e-6 + 0.01 * m->stats.cycles);
}

}  // namespace
}  // namespace spgemm
}  // namespace spnet
