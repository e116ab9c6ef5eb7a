#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "core/block_reorganizer.h"
#include "datasets/generators.h"
#include "gpusim/kernel_desc.h"
#include "sparse/reference_spgemm.h"
#include "tests/test_util.h"

namespace spnet {
namespace core {
namespace {

using sparse::CsrMatrix;

ReorganizerConfig ConfigFromMask(int mask) {
  ReorganizerConfig config;
  config.enable_splitting = (mask & 1) != 0;
  config.enable_gathering = (mask & 2) != 0;
  config.enable_limiting = (mask & 4) != 0;
  return config;
}

/// Property sweep: every combination of technique toggles must produce the
/// exact reference product on both skewed and regular inputs.
using MaskSkewParam = std::tuple<int, bool>;

class ReorganizerToggleTest
    : public ::testing::TestWithParam<MaskSkewParam> {};

TEST_P(ReorganizerToggleTest, ComputeMatchesReference) {
  const auto [mask, skewed] = GetParam();
  const CsrMatrix a = skewed
                          ? testing_util::SkewedMatrix(220, 130, 7)
                          : testing_util::RandomMatrix(180, 180, 0.03, 7);
  BlockReorganizerSpGemm alg(ConfigFromMask(mask));
  auto expected = sparse::ReferenceSpGemm(a, a);
  auto got = alg.Compute(a, a);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9)) << "mask " << mask;
}

INSTANTIATE_TEST_SUITE_P(
    AllToggles, ReorganizerToggleTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Bool()),
    [](const ::testing::TestParamInfo<MaskSkewParam>& param_info) {
      return "mask" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_skewed" : "_uniform");
    });

/// Splitting-factor sweep: the mapper/pointer transformation must be
/// results-neutral for every factor (the Figure 11 sweep relies on this).
class SplittingFactorTest : public ::testing::TestWithParam<int> {};

TEST_P(SplittingFactorTest, ComputeMatchesReference) {
  ReorganizerConfig config;
  config.splitting_factor_override = GetParam();
  const CsrMatrix a = testing_util::SkewedMatrix(250, 160, 13);
  BlockReorganizerSpGemm alg(config);
  auto expected = sparse::ReferenceSpGemm(a, a);
  auto got = alg.Compute(a, a);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Factors, SplittingFactorTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(ReorganizerTest, RectangularProduct) {
  const CsrMatrix a = testing_util::RandomMatrix(90, 140, 0.05, 17);
  const CsrMatrix b = testing_util::RandomMatrix(140, 60, 0.05, 18);
  BlockReorganizerSpGemm alg;
  auto expected = sparse::ReferenceSpGemm(a, b);
  auto got = alg.Compute(a, b);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9));
}

TEST(ReorganizerTest, AnalyzeCountsAreConsistent) {
  const CsrMatrix a = testing_util::SkewedMatrix(500, 400, 19);
  BlockReorganizerSpGemm alg;
  auto report = alg.Analyze(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->nonzero_pairs, report->dominators +
                                       report->low_performers +
                                       report->normals);
  EXPECT_GT(report->dominators, 0);
  EXPECT_GT(report->low_performers, 0);
  EXPECT_GE(report->fragments, report->dominators);
  EXPECT_LE(report->combined_blocks, report->gathered_pairs);
  EXPECT_GT(report->limited_rows, 0);
}

TEST(ReorganizerTest, DisabledTechniquesReportZero) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 21);
  ReorganizerConfig off;
  off.enable_splitting = false;
  off.enable_gathering = false;
  BlockReorganizerSpGemm alg(off);
  auto report = alg.Analyze(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fragments, 0);
  EXPECT_EQ(report->combined_blocks, 0);
  EXPECT_EQ(report->gathered_pairs, 0);
}

TEST(ReorganizerTest, PlanHasPreprocessExpansionAndMerge) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 23);
  BlockReorganizerSpGemm alg;
  auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(plan.ok());
  bool has_preprocess = false, has_expansion = false, has_merge = false,
       has_limited = false;
  for (const auto& k : plan->kernels) {
    if (k.phase == gpusim::Phase::kPreprocess) has_preprocess = true;
    if (k.phase == gpusim::Phase::kExpansion) has_expansion = true;
    if (k.phase == gpusim::Phase::kMerge) has_merge = true;
    if (k.label == "merge-limited") has_limited = true;
  }
  EXPECT_TRUE(has_preprocess);
  EXPECT_TRUE(has_expansion);
  EXPECT_TRUE(has_merge);
  EXPECT_TRUE(has_limited);
  EXPECT_GT(plan->host_seconds, 0.0);
}

TEST(ReorganizerTest, ExpansionBlocksCoverAllWork) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 25);
  for (int mask = 0; mask < 8; ++mask) {
    BlockReorganizerSpGemm alg(ConfigFromMask(mask));
    auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
    ASSERT_TRUE(plan.ok());
    int64_t expansion_work = 0;
    for (const auto& k : plan->kernels) {
      if (k.phase != gpusim::Phase::kExpansion) continue;
      for (const auto& tb : k.blocks) expansion_work += tb.useful_lane_ops;
    }
    EXPECT_EQ(expansion_work, plan->flops) << "mask " << mask;
  }
}

TEST(ReorganizerTest, SplittingShrinksLargestExpansionBlock) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 27);
  ReorganizerConfig split_off;
  split_off.enable_splitting = false;
  auto max_block_work = [&](const ReorganizerConfig& config) {
    BlockReorganizerSpGemm alg(config);
    auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
    SPNET_CHECK(plan.ok());
    int64_t max_work = 0;
    for (const auto& k : plan->kernels) {
      if (k.phase != gpusim::Phase::kExpansion) continue;
      for (const auto& tb : k.blocks) {
        max_work = std::max(max_work, tb.useful_lane_ops);
      }
    }
    return max_work;
  };
  EXPECT_LT(max_block_work(ReorganizerConfig{}), max_block_work(split_off));
}

TEST(ReorganizerTest, GatheringShrinksExpansionBlockCount) {
  const CsrMatrix a = testing_util::SkewedMatrix(600, 200, 29);
  ReorganizerConfig gather_off;
  gather_off.enable_gathering = false;
  auto block_count = [&](const ReorganizerConfig& config) {
    BlockReorganizerSpGemm alg(config);
    auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
    SPNET_CHECK(plan.ok());
    size_t blocks = 0;
    for (const auto& k : plan->kernels) {
      if (k.phase == gpusim::Phase::kExpansion) blocks += k.blocks.size();
    }
    return blocks;
  };
  EXPECT_LT(block_count(ReorganizerConfig{}), block_count(gather_off));
}

TEST(ReorganizerTest, LimitingRaisesMergeSharedMemory) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 31);
  ReorganizerConfig config;
  BlockReorganizerSpGemm alg(config);
  auto plan = alg.Plan(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(plan.ok());
  for (const auto& k : plan->kernels) {
    if (k.label != "merge-limited") continue;
    for (const auto& tb : k.blocks) {
      EXPECT_GE(tb.shared_mem_bytes, config.limiting_extra_shmem);
    }
  }
}

/// FNV-1a over the output's dimensions, ptr, indices and value bit
/// patterns: any change to the per-row summation order or emission order
/// changes it.
uint64_t OutputHash(const CsrMatrix& c) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(c.rows()));
  mix(static_cast<uint64_t>(c.cols()));
  for (sparse::Offset p : c.ptr()) mix(static_cast<uint64_t>(p));
  for (sparse::Index i : c.indices()) mix(static_cast<uint64_t>(i));
  for (sparse::Value v : c.values()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

CsrMatrix PowerLaw(uint64_t seed) {
  datasets::PowerLawParams params;
  params.rows = 3000;
  params.cols = 3000;
  params.nnz = 20000;
  params.seed = seed;
  auto a = datasets::GeneratePowerLaw(params);
  SPNET_CHECK(a.ok()) << a.status().ToString();
  return std::move(a).value();
}

/// Pins the default reorganizer's output bit for bit. The power-law inputs
/// have dominators and low performers, so the split-fragment and gathered
/// dispatch orders both feed C-hat; the sparse uniform input has empty
/// rows in A and in C.
TEST(ReorganizerTest, OutputBitsArePinned) {
  struct Case {
    const char* name;
    CsrMatrix a;
    uint64_t hash;
  };
  const Case cases[] = {
      {"powerlaw-seed3", PowerLaw(3), 13668021822031898007ULL},
      {"powerlaw-seed8", PowerLaw(8), 6153990744391780423ULL},
      {"empty-rows", testing_util::RandomMatrix(300, 300, 0.004, 5),
       18281940742808905750ULL},
  };
  BlockReorganizerSpGemm alg;
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    const CsrMatrix& a = test_case.a;
    auto report = alg.Analyze(a, a, gpusim::DeviceSpec::TitanXp());
    ASSERT_TRUE(report.ok());
    auto c = alg.Compute(a, a);
    ASSERT_TRUE(c.ok());
    if (std::string(test_case.name) == "empty-rows") {
      int64_t empty_rows = 0;
      for (sparse::Index r = 0; r < c->rows(); ++r) {
        if (c->Row(r).size == 0) ++empty_rows;
      }
      EXPECT_GT(empty_rows, 0);
    } else {
      EXPECT_GT(report->fragments, report->dominators);
      EXPECT_GT(report->gathered_pairs, 0);
    }
    EXPECT_EQ(OutputHash(*c), test_case.hash);
  }
}

TEST(ReorganizerTest, NamedConfigurations) {
  BlockReorganizerSpGemm defaulted;
  EXPECT_EQ(defaulted.name(), "Block-Reorganizer");
  BlockReorganizerSpGemm named({}, "B-Splitting");
  EXPECT_EQ(named.name(), "B-Splitting");
}

}  // namespace
}  // namespace core
}  // namespace spnet
