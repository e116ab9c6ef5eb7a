#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "core/block_reorganizer.h"
#include "datasets/generators.h"
#include "gpusim/kernel_desc.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/exec_context.h"
#include "spgemm/workload_model.h"
#include "tests/test_util.h"

namespace spnet {
namespace core {
namespace {

using sparse::CsrMatrix;
using sparse::Index;

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

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
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

/// The Analyze census as one comparable value, in ReorganizerReport's
/// field order.
std::array<int64_t, 10> Census(const ReorganizerReport& r) {
  return {r.nonzero_pairs,   r.dominators,      r.low_performers,
          r.normals,         r.limited_rows,    r.fragments,
          r.combined_blocks, r.gathered_pairs,  r.dominator_threshold,
          r.limit_row_threshold};
}

/// Pins every registered reorganizer variant bit for bit: the output
/// hash, the Analyze census and the simulated TitanXp seconds. The
/// power-law inputs have dominators and low performers, so the
/// split-fragment and gathered dispatch orders both feed C-hat; the sparse
/// uniform input has empty rows in A and in C.
TEST(ReorganizerTest, OutputBitsArePinned) {
  struct Input {
    const char* name;
    CsrMatrix a;
  };
  const Input inputs[] = {
      {"powerlaw-seed3", PowerLaw(3)},
      {"powerlaw-seed8", PowerLaw(8)},
      {"empty-rows", testing_util::RandomMatrix(300, 300, 0.004, 5)},
  };
  struct Pin {
    const char* algorithm;
    const char* input;
    uint64_t hash;
    std::array<int64_t, 10> census;
    uint64_t seconds_bits;
  };
  const Pin pins[] = {
      {"reorganizer", "powerlaw-seed3", 13668021822031898007ULL,
       {2849, 10, 2776, 63, 14, 640, 65, 2776, 18005, 5343},
       0x3f3051d38b9729e7ULL},
      {"reorganizer", "powerlaw-seed8", 6153990744391780423ULL,
       {2834, 9, 2761, 64, 14, 576, 65, 2761, 18228, 5381},
       0x3f302d8ce9997f0aULL},
      {"reorganizer", "empty-rows", 18281940742808905750ULL,
       {151, 0, 151, 0, 0, 0, 3, 150, 103, 26},
       0x3f015738ed693209ULL},
      {"reorganizer-limiting", "powerlaw-seed3", 13868547302626902153ULL,
       {2849, 10, 2776, 63, 14, 0, 0, 0, 18005, 5343},
       0x3f374543077d5c96ULL},
      {"reorganizer-limiting", "powerlaw-seed8", 6589806249894285186ULL,
       {2834, 9, 2761, 64, 14, 0, 0, 0, 18228, 5381},
       0x3f373a16558a894aULL},
      {"reorganizer-limiting", "empty-rows", 2048346837496487982ULL,
       {151, 0, 151, 0, 0, 0, 0, 0, 103, 26},
       0x3f0155802e4905a3ULL},
      {"reorganizer-splitting", "powerlaw-seed3", 13868547302626902153ULL,
       {2849, 10, 2776, 63, 14, 640, 0, 0, 18005, 5343},
       0x3f35ca249b0916e8ULL},
      {"reorganizer-splitting", "powerlaw-seed8", 6589806249894285186ULL,
       {2834, 9, 2761, 64, 14, 576, 0, 0, 18228, 5381},
       0x3f363f2b5b0828ccULL},
      {"reorganizer-splitting", "empty-rows", 2048346837496487982ULL,
       {151, 0, 151, 0, 0, 0, 0, 0, 103, 26},
       0x3f0155802e4905a3ULL},
      {"reorganizer-gathering", "powerlaw-seed3", 13668021822031898007ULL,
       {2849, 10, 2776, 63, 14, 0, 65, 2776, 18005, 5343},
       0x3f3c90dec5e9b600ULL},
      {"reorganizer-gathering", "powerlaw-seed8", 6153990744391780423ULL,
       {2834, 9, 2761, 64, 14, 0, 65, 2761, 18228, 5381},
       0x3f3d269380eef7b9ULL},
      {"reorganizer-gathering", "empty-rows", 18281940742808905750ULL,
       {151, 0, 151, 0, 0, 0, 3, 150, 103, 26},
       0x3f015738ed693209ULL},
  };
  RegisterCoreAlgorithms();
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.algorithm) + " on " + pin.input);
    const Input* input = nullptr;
    for (const Input& candidate : inputs) {
      if (std::string(candidate.name) == pin.input) input = &candidate;
    }
    ASSERT_NE(input, nullptr);
    const CsrMatrix& a = input->a;
    auto created = spgemm::AlgorithmRegistry::Global().Create(pin.algorithm);
    ASSERT_TRUE(created.ok());
    const auto* alg =
        dynamic_cast<const BlockReorganizerSpGemm*>(created->get());
    ASSERT_NE(alg, nullptr);
    auto report = alg->Analyze(a, a, device);
    ASSERT_TRUE(report.ok());
    auto c = alg->Compute(a, a);
    ASSERT_TRUE(c.ok());
    auto measured = spgemm::Measure(*alg, a, a, device);
    ASSERT_TRUE(measured.ok());
    if (std::string(pin.input) == "empty-rows") {
      int64_t empty_rows = 0;
      for (sparse::Index r = 0; r < c->rows(); ++r) {
        if (c->Row(r).size == 0) ++empty_rows;
      }
      EXPECT_GT(empty_rows, 0);
    } else if (std::string(pin.algorithm) == "reorganizer") {
      EXPECT_GT(report->fragments, report->dominators);
      EXPECT_GT(report->gathered_pairs, 0);
    }
    EXPECT_EQ(testing_util::OutputHash(*c), pin.hash);
    EXPECT_EQ(Census(*report), pin.census);
    EXPECT_EQ(Bits(measured->total_seconds), pin.seconds_bits);
  }
}

/// Pins the two baselines that run the shared host row kernel, on the same
/// inputs, at 1 thread (the serial single pass) and at 3 (the parallel
/// two-pass, with chunks that do not divide the rows evenly). The row
/// product and the outer product differ only in how the GPU schedules the
/// expansion, so they must produce the same bits.
TEST(ReorganizerTest, BaselineOutputBitsArePinned) {
  struct Pin {
    const char* input;
    CsrMatrix a;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"powerlaw-seed3", PowerLaw(3), 11666836418419952887ULL},
      {"powerlaw-seed8", PowerLaw(8), 14973179747670748332ULL},
      {"empty-rows", testing_util::RandomMatrix(300, 300, 0.004, 5),
       2048346837496487982ULL},
  };
  for (const char* algorithm : {"row-product", "outer-product"}) {
    auto alg = spgemm::AlgorithmRegistry::Global().Create(algorithm);
    ASSERT_TRUE(alg.ok());
    for (const Pin& pin : pins) {
      for (int threads : {1, 3}) {
        SCOPED_TRACE(std::string(algorithm) + " on " + pin.input + " with " +
                     std::to_string(threads) + " threads");
        SetGlobalThreadCount(threads);
        auto c = (*alg)->Compute(pin.a, pin.a);
        SetGlobalThreadCount(0);
        ASSERT_TRUE(c.ok());
        EXPECT_EQ(testing_util::OutputHash(*c), pin.hash);
      }
    }
  }
}

/// Pins the simulated seconds of every registered baseline, on the same
/// inputs and all three device presets: Measure's total plus its
/// expansion- and merge-phase seconds, bit for bit. The power-law plans
/// carry merge blocks whose atomics go off-chip, so the residency-dependent
/// contention term is part of what is pinned.
TEST(ReorganizerTest, BaselineMeasureBitsArePinned) {
  struct Input {
    const char* name;
    CsrMatrix a;
  };
  const Input inputs[] = {
      {"powerlaw-seed3", PowerLaw(3)},
      {"powerlaw-seed8", PowerLaw(8)},
      {"empty-rows", testing_util::RandomMatrix(300, 300, 0.004, 5)},
  };
  const gpusim::DeviceSpec devices[] = {gpusim::DeviceSpec::TitanXp(),
                                        gpusim::DeviceSpec::TeslaV100(),
                                        gpusim::DeviceSpec::Rtx2080Ti()};
  struct Pin {
    const char* algorithm;
    const char* input;
    const char* device;
    uint64_t total_bits;
    uint64_t expansion_bits;
    uint64_t merge_bits;
  };
  const Pin pins[] = {
      {"row-product", "powerlaw-seed3", "TITAN Xp", 0x3f41ea1b98e80a84ULL,
       0x3f329c72c8887e9fULL, 0x3f2f28ac752ba46dULL},
      {"row-product", "powerlaw-seed3", "Tesla V100", 0x3f43173967db7376ULL,
       0x3f350e090ba8afddULL, 0x3f2ef9f72ab8e5b9ULL},
      {"row-product", "powerlaw-seed3", "RTX 2080 Ti", 0x3f3fa8c490d9c477ULL,
       0x3f32ee79765043d0ULL, 0x3f262db9d7af78e9ULL},
      {"row-product", "powerlaw-seed8", "TITAN Xp", 0x3f4346a44255d9b2ULL,
       0x3f34d369849d32c6ULL, 0x3f301670d15cbc6cULL},
      {"row-product", "powerlaw-seed8", "Tesla V100", 0x3f448f9153e93e1eULL,
       0x3f379c4873240beaULL, 0x3f2fbed80bf9583eULL},
      {"row-product", "powerlaw-seed8", "RTX 2080 Ti", 0x3f412e1686ff5b7eULL,
       0x3f3534eefc0a1634ULL, 0x3f27079fc685b92aULL},
      {"row-product", "empty-rows", "TITAN Xp", 0x3f00d4a9acfc4a91ULL,
       0x3ed183d603247789ULL, 0x3ec88bd77099a098ULL},
      {"row-product", "empty-rows", "Tesla V100", 0x3f014073cc144b23ULL,
       0x3ed36116c29dfceaULL, 0x3ecb8df7e3269ef2ULL},
      {"row-product", "empty-rows", "RTX 2080 Ti", 0x3f00dd50d143bb4aULL,
       0x3ed19f3d6899054eULL, 0x3ec8df7aea279097ULL},
      {"outer-product", "powerlaw-seed3", "TITAN Xp", 0x3f3be94ee705595bULL,
       0x3f25611196165155ULL, 0x3f2f28ac752ba46dULL},
      {"outer-product", "powerlaw-seed3", "Tesla V100", 0x3f3cf8ddb2c40e09ULL,
       0x3f27aee478067965ULL, 0x3f2ef9f72ab8e5b9ULL},
      {"outer-product", "powerlaw-seed3", "RTX 2080 Ti", 0x3f37c5751570a233ULL,
       0x3f26145090690e8cULL, 0x3f262db9d7af78e9ULL},
      {"outer-product", "powerlaw-seed8", "TITAN Xp", 0x3f3ca991879db849ULL,
       0x3f25dd61a9b93ac9ULL, 0x3f301670d15cbc6cULL},
      {"outer-product", "powerlaw-seed8", "Tesla V100", 0x3f3d7034138af095ULL,
       0x3f27d8b05853cbfbULL, 0x3f2fbed80bf9583eULL},
      {"outer-product", "powerlaw-seed8", "RTX 2080 Ti", 0x3f381cbd6eb2fcf3ULL,
       0x3f25e8fb541783ccULL, 0x3f27079fc685b92aULL},
      {"outer-product", "empty-rows", "TITAN Xp", 0x3effd9335ef5ee0eULL,
       0x3ec479c9a545994dULL, 0x3ec88bd77099a098ULL},
      {"outer-product", "empty-rows", "Tesla V100", 0x3f004c5c19a325d0ULL,
       0x3ec773cfd53b877dULL, 0x3ecb8df7e3269ef2ULL},
      {"outer-product", "empty-rows", "RTX 2080 Ti", 0x3efff30dc1500200ULL,
       0x3ec4f4f93e8848e2ULL, 0x3ec8df7aea279097ULL},
      {"cusparse", "powerlaw-seed3", "TITAN Xp", 0x3f6047cab3d3a263ULL,
       0x3f5f11571da68382ULL, 0x3f11562be5450389ULL},
      {"cusparse", "powerlaw-seed3", "Tesla V100", 0x3f62528f0829da06ULL,
       0x3f61b9379467a792ULL, 0x3f093a6b7afe7b5fULL},
      {"cusparse", "powerlaw-seed3", "RTX 2080 Ti", 0x3f609187a70118e4ULL,
       0x3f5fbc90736ce7eaULL, 0x3f0fb469dd1b1a24ULL},
      {"cusparse", "powerlaw-seed8", "TITAN Xp", 0x3f62c86b33ca5f8aULL,
       0x3f6208dca79fa68fULL, 0x3f116418ca900ea7ULL},
      {"cusparse", "powerlaw-seed8", "Tesla V100", 0x3f6531fd4728d168ULL,
       0x3f649867fa3ca073ULL, 0x3f0949e1c57e1b85ULL},
      {"cusparse", "powerlaw-seed8", "RTX 2080 Ti", 0x3f63220287c0cb8dULL,
       0x3f626e616f943fa5ULL, 0x3f0fccd49594d871ULL},
      {"cusparse", "empty-rows", "TITAN Xp", 0x3f038d2855b4f969ULL,
       0x3ee3aa856f5f09e5ULL, 0x3ec8715844f15594ULL},
      {"cusparse", "empty-rows", "Tesla V100", 0x3f043eed07f2c2b2ULL,
       0x3ee5b49394a73696ULL, 0x3ecb656ad3ad375cULL},
      {"cusparse", "empty-rows", "RTX 2080 Ti", 0x3f03983629081fc8ULL,
       0x3ee3c31f53f8eeb8ULL, 0x3ec8bfcde7bc2834ULL},
      {"cusp", "powerlaw-seed3", "TITAN Xp", 0x3f4a2c347bbe8573ULL,
       0x3f227118a6efe0edULL, 0x3f44be373aa9ab1fULL},
      {"cusp", "powerlaw-seed3", "Tesla V100", 0x3f433a30312d9556ULL,
       0x3f248be4313c4ad7ULL, 0x3f3a8b001b0b4110ULL},
      {"cusp", "powerlaw-seed3", "RTX 2080 Ti", 0x3f48092c754156b8ULL,
       0x3f229e28228cca6eULL, 0x3f428feb55454203ULL},
      {"cusp", "powerlaw-seed8", "TITAN Xp", 0x3f4a8be61c4b0eceULL,
       0x3f23521a2dbff219ULL, 0x3f44e5a87982302fULL},
      {"cusp", "powerlaw-seed8", "Tesla V100", 0x3f4396fec65d1e21ULL,
       0x3f259f0c6166c17dULL, 0x3f3abb092d551752ULL},
      {"cusp", "powerlaw-seed8", "RTX 2080 Ti", 0x3f4867b8efe0597cULL,
       0x3f238c3d599f67fcULL, 0x3f42b2f2821f9d64ULL},
      {"cusp", "empty-rows", "TITAN Xp", 0x3f029a66deb2c267ULL,
       0x3ed083ba439d3243ULL, 0x3edb73f10587d43eULL},
      {"cusp", "empty-rows", "Tesla V100", 0x3f032caf53acf2faULL,
       0x3ed23b7dffe9511fULL, 0x3ede4e70f10d39f8ULL},
      {"cusp", "empty-rows", "RTX 2080 Ti", 0x3f02a346d2c3e2f6ULL,
       0x3ed098ff867ddbb4ULL, 0x3edba5ab63302f49ULL},
      {"bhsparse", "powerlaw-seed3", "TITAN Xp", 0x3f54d561354aae93ULL,
       0x3f50872fae4c2268ULL, 0x3f2f28ac752ba46dULL},
      {"bhsparse", "powerlaw-seed3", "Tesla V100", 0x3f55b3bbba16b7e8ULL,
       0x3f516b60dc668392ULL, 0x3f2ef9f72ab8e5b9ULL},
      {"bhsparse", "powerlaw-seed3", "RTX 2080 Ti", 0x3f539757feac6447ULL,
       0x3f506884cb5d5d8cULL, 0x3f262db9d7af78e9ULL},
      {"bhsparse", "powerlaw-seed8", "TITAN Xp", 0x3f551fb812506eefULL,
       0x3f50b0ffe5a02836ULL, 0x3f301670d15cbc6cULL},
      {"bhsparse", "powerlaw-seed8", "Tesla V100", 0x3f55f8eef7e84f14ULL,
       0x3f5197f7fe100c6eULL, 0x3f2fbed80bf9583eULL},
      {"bhsparse", "powerlaw-seed8", "RTX 2080 Ti", 0x3f53dc36d696ac11ULL,
       0x3f509226e56cdd4eULL, 0x3f27079fc685b92aULL},
      {"bhsparse", "empty-rows", "TITAN Xp", 0x3f018426de529573ULL,
       0x3ed6f94e495fc008ULL, 0x3ec88bd77099a098ULL},
      {"bhsparse", "empty-rows", "Tesla V100", 0x3f01f79b1aa528d6ULL,
       0x3ed913dff2addbeeULL, 0x3ecb8df7e3269ef2ULL},
      {"bhsparse", "empty-rows", "RTX 2080 Ti", 0x3f0188fddaee8851ULL,
       0x3ed6f63471785ef7ULL, 0x3ec8df7aea279097ULL},
      {"mkl", "powerlaw-seed3", "TITAN Xp", 0x3f37353ac33f1e56ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "powerlaw-seed3", "Tesla V100", 0x3f37353ac33f1e56ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "powerlaw-seed3", "RTX 2080 Ti", 0x3f37353ac33f1e56ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "powerlaw-seed8", "TITAN Xp", 0x3f3750f8ebac9b74ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "powerlaw-seed8", "Tesla V100", 0x3f3750f8ebac9b74ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "powerlaw-seed8", "RTX 2080 Ti", 0x3f3750f8ebac9b74ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "empty-rows", "TITAN Xp", 0x3eff95dd528620b2ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "empty-rows", "Tesla V100", 0x3eff95dd528620b2ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"mkl", "empty-rows", "RTX 2080 Ti", 0x3eff95dd528620b2ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {"acspgemm", "powerlaw-seed3", "TITAN Xp", 0x3f46c42304ebdd34ULL,
       0x3f3c4f7feddd89b8ULL, 0x3f2f28ac752ba46dULL},
      {"acspgemm", "powerlaw-seed3", "Tesla V100", 0x3f48273a6193f286ULL,
       0x3f3f2d094c6713b4ULL, 0x3f2ef9f72ab8e5b9ULL},
      {"acspgemm", "powerlaw-seed3", "RTX 2080 Ti", 0x3f449316da9887b8ULL,
       0x3f3c6ae0e7f4f482ULL, 0x3f262db9d7af78e9ULL},
      {"acspgemm", "powerlaw-seed8", "TITAN Xp", 0x3f473559fa1a858bULL,
       0x3f3cafd34173f02fULL, 0x3f301670d15cbc6cULL},
      {"acspgemm", "powerlaw-seed8", "Tesla V100", 0x3f488d7d30e57734ULL,
       0x3f3f971e7a69e3ceULL, 0x3f2fbed80bf9583eULL},
      {"acspgemm", "powerlaw-seed8", "RTX 2080 Ti", 0x3f44f9e907b4c410ULL,
       0x3f3ccb924ac24d11ULL, 0x3f27079fc685b92aULL},
      {"acspgemm", "empty-rows", "TITAN Xp", 0x3f00f1a699eb07e7ULL,
       0x3ed2654c262353a7ULL, 0x3ec88bd77099a098ULL},
      {"acspgemm", "empty-rows", "Tesla V100", 0x3f015bf87465cf2cULL,
       0x3ed436cac0b30e9eULL, 0x3ecb8df7e3269ef2ULL},
      {"acspgemm", "empty-rows", "RTX 2080 Ti", 0x3f00f87ad637d162ULL,
       0x3ed2721c4bc2a780ULL, 0x3ec8df7aea279097ULL},
      {"nsparse", "powerlaw-seed3", "TITAN Xp", 0x3f1e3edc217a03c4ULL,
       0x3f1481e213c96f45ULL, 0x0000000000000000ULL},
      {"nsparse", "powerlaw-seed3", "Tesla V100", 0x3f17f7a69549e799ULL,
       0x3f0d3433a0baca85ULL, 0x0000000000000000ULL},
      {"nsparse", "powerlaw-seed3", "RTX 2080 Ti", 0x3f1c39cd15b1bf16ULL,
       0x3f12a5055a49e39cULL, 0x0000000000000000ULL},
      {"nsparse", "powerlaw-seed8", "TITAN Xp", 0x3f202e1e9e7064eaULL,
       0x3f1697dc84d0ad9bULL, 0x0000000000000000ULL},
      {"nsparse", "powerlaw-seed8", "Tesla V100", 0x3f193cada7fbd09dULL,
       0x3f0fb511c7ae7d3aULL, 0x0000000000000000ULL},
      {"nsparse", "powerlaw-seed8", "RTX 2080 Ti", 0x3f1e120319d3ba80ULL,
       0x3f1476a31ee7dea2ULL, 0x0000000000000000ULL},
      {"nsparse", "empty-rows", "TITAN Xp", 0x3eff137307ff0c62ULL,
       0x3ec5317a6111ee4dULL, 0x0000000000000000ULL},
      {"nsparse", "empty-rows", "Tesla V100", 0x3effc40bb76d021eULL,
       0x3ec82c5c792358b2ULL, 0x0000000000000000ULL},
      {"nsparse", "empty-rows", "RTX 2080 Ti", 0x3eff2d29cbb94ae8ULL,
       0x3ec598a41c14ef14ULL, 0x0000000000000000ULL},
  };
  ASSERT_EQ(std::size(pins), 8u * std::size(inputs) * std::size(devices));
  size_t next = 0;
  for (const char* algorithm :
       {"row-product", "outer-product", "cusparse", "cusp", "bhsparse", "mkl",
        "acspgemm", "nsparse"}) {
    auto alg = spgemm::AlgorithmRegistry::Global().Create(algorithm);
    ASSERT_TRUE(alg.ok());
    for (const Input& input : inputs) {
      for (const gpusim::DeviceSpec& device : devices) {
        const Pin& pin = pins[next++];
        SCOPED_TRACE(std::string(algorithm) + " on " + input.name + " on " +
                     device.name);
        ASSERT_EQ(std::string(pin.algorithm), algorithm);
        ASSERT_EQ(std::string(pin.input), input.name);
        ASSERT_EQ(pin.device, device.name);
        auto measured = spgemm::Measure(**alg, input.a, input.a, device);
        ASSERT_TRUE(measured.ok());
        EXPECT_EQ(Bits(measured->total_seconds), pin.total_bits);
        EXPECT_EQ(Bits(measured->expansion.seconds), pin.expansion_bits);
        EXPECT_EQ(Bits(measured->merge.seconds), pin.merge_bits);
        if (std::string(algorithm) != "row-product" ||
            std::string(input.name) == "empty-rows") {
          continue;
        }
        auto plan = (*alg)->Plan(input.a, input.a, device);
        ASSERT_TRUE(plan.ok());
        int64_t off_chip = 0;
        for (const gpusim::KernelDesc& k : plan->kernels) {
          if (k.phase != gpusim::Phase::kMerge) continue;
          for (const gpusim::ThreadBlockDesc& tb : k.blocks) {
            if (!tb.atomics_in_shared && tb.atomic_ops > 0) ++off_chip;
          }
        }
        EXPECT_GT(off_chip, 100);
      }
    }
  }
}

/// Pins Measure's total, expansion and merge seconds at the serving
/// benchmark's operand size: 20000 x 20000 with 120k nonzeros, one
/// power-law input (skew 0.8) and one quasi-regular input, for the
/// reorganizer and the row product on all three device presets. These
/// plans run thousands of merge blocks through the scheduler, where the
/// small pins above run hundreds. (Equal retirement times are rare here;
/// SimulatorTest.TiedRetirementBitsArePinned pins the tie order.)
TEST(ReorganizerTest, ServeScaleMeasureBitsArePinned) {
  struct Input {
    const char* name;
    CsrMatrix a;
  };
  datasets::PowerLawParams powerlaw;
  powerlaw.rows = 20000;
  powerlaw.cols = 20000;
  powerlaw.nnz = 120000;
  powerlaw.row_skew = 0.8;
  powerlaw.col_skew = 0.8;
  powerlaw.seed = 5;
  auto skewed = datasets::GeneratePowerLaw(powerlaw);
  ASSERT_TRUE(skewed.ok());
  datasets::QuasiRegularParams quasi;
  quasi.n = 20000;
  quasi.nnz = 120000;
  quasi.seed = 5;
  auto regular = datasets::GenerateQuasiRegular(quasi);
  ASSERT_TRUE(regular.ok());
  const Input inputs[] = {
      {"powerlaw-20k", std::move(skewed).value()},
      {"quasi-regular-20k", std::move(regular).value()},
  };
  const gpusim::DeviceSpec devices[] = {gpusim::DeviceSpec::TitanXp(),
                                        gpusim::DeviceSpec::TeslaV100(),
                                        gpusim::DeviceSpec::Rtx2080Ti()};
  struct Pin {
    const char* algorithm;
    const char* input;
    const char* device;
    uint64_t total_bits;
    uint64_t expansion_bits;
    uint64_t merge_bits;
  };
  const Pin pins[] = {
      {"reorganizer", "powerlaw-20k", "TITAN Xp",
       0x3f6394c6e0943e1aULL, 0x3f420eb2169eef89ULL, 0x3f5be49507cdbb06ULL},
      {"reorganizer", "powerlaw-20k", "Tesla V100",
       0x3f586d7d7d8fe123ULL, 0x3f35b8beca6c313bULL, 0x3f50c319ddbe0f8dULL},
      {"reorganizer", "powerlaw-20k", "RTX 2080 Ti",
       0x3f5cdeed62a230e8ULL, 0x3f3f072cf3710eeaULL, 0x3f52e109cfc7833fULL},
      {"reorganizer", "quasi-regular-20k", "TITAN Xp",
       0x3f17de878b3c9440ULL, 0x3ef7998df39dd97cULL, 0x3f004c24605c0080ULL},
      {"reorganizer", "quasi-regular-20k", "Tesla V100",
       0x3f1371f5327b0dccULL, 0x3ef19c5140d2d4cfULL, 0x3ef53e2c459df463ULL},
      {"reorganizer", "quasi-regular-20k", "RTX 2080 Ti",
       0x3f165ee72fb99392ULL, 0x3ef54b150d44a842ULL, 0x3efd4a163c3d0e5eULL},
      {"row-product", "powerlaw-20k", "TITAN Xp",
       0x3f70a79365bedf70ULL, 0x3f5e396d68c6a532ULL, 0x3f61fe02514433c1ULL},
      {"row-product", "powerlaw-20k", "Tesla V100",
       0x3f6598574d16ff39ULL, 0x3f503fc2ffe66edeULL, 0x3f5a88100e9b1e87ULL},
      {"row-product", "powerlaw-20k", "RTX 2080 Ti",
       0x3f66ec9b43426504ULL, 0x3f55fc7e76b43451ULL, 0x3f5773dc842424abULL},
      {"row-product", "quasi-regular-20k", "TITAN Xp",
       0x3f1a4c536cba80e2ULL, 0x3f073111038adfaeULL, 0x3f004c24605c0080ULL},
      {"row-product", "quasi-regular-20k", "Tesla V100",
       0x3f1465eb51682f6dULL, 0x3f01114f0a734312ULL, 0x3ef53e2c459df463ULL},
      {"row-product", "quasi-regular-20k", "RTX 2080 Ti",
       0x3f1882f1dc975d0eULL, 0x3f05456725821158ULL, 0x3efd4a163c3d0e5eULL},
  };
  ASSERT_EQ(std::size(pins), 2u * std::size(inputs) * std::size(devices));
  RegisterCoreAlgorithms();
  size_t next = 0;
  for (const char* algorithm : {"reorganizer", "row-product"}) {
    auto alg = spgemm::AlgorithmRegistry::Global().Create(algorithm);
    ASSERT_TRUE(alg.ok());
    for (const Input& input : inputs) {
      for (const gpusim::DeviceSpec& device : devices) {
        const Pin& pin = pins[next++];
        SCOPED_TRACE(std::string(algorithm) + " on " + input.name + " on " +
                     device.name);
        ASSERT_EQ(std::string(pin.algorithm), algorithm);
        ASSERT_EQ(std::string(pin.input), input.name);
        ASSERT_EQ(pin.device, device.name);
        auto measured = spgemm::Measure(**alg, input.a, input.a, device);
        ASSERT_TRUE(measured.ok());
        EXPECT_EQ(Bits(measured->total_seconds), pin.total_bits);
        EXPECT_EQ(Bits(measured->expansion.seconds), pin.expansion_bits);
        EXPECT_EQ(Bits(measured->merge.seconds), pin.merge_bits);
      }
    }
  }
}

/// Number of recorded spans named `name`.
int CountSpans(const spgemm::ExecContext& ctx, const std::string& name) {
  int n = 0;
  for (const auto& span : ctx.trace.spans()) n += span.name == name ? 1 : 0;
  return n;
}

/// Plan and Compute each build exactly one workload. Compute orders A's
/// rows by dispatch once and runs one fused kernel: a `relabel` span, an
/// `expand` span and no separate `merge` span, with the product and output
/// counters still exact.
TEST(ReorganizerTest, ComputeTracesRelabelAndFusedExpand) {
  const CsrMatrix a = PowerLaw(3);
  BlockReorganizerSpGemm alg;
  spgemm::ExecContext plan_ctx;
  ASSERT_TRUE(alg.Plan(a, a, gpusim::DeviceSpec::TitanXp(), &plan_ctx).ok());
  EXPECT_EQ(CountSpans(plan_ctx, "build-workload"), 1);
  spgemm::ExecContext ctx;
  auto c = alg.Compute(a, a, &ctx);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(CountSpans(ctx, "build-workload"), 1);
  EXPECT_EQ(CountSpans(ctx, "relabel"), 1);
  EXPECT_EQ(CountSpans(ctx, "expand"), 1);
  EXPECT_EQ(CountSpans(ctx, "merge"), 0);
  auto counters = ctx.registry.Snapshot();
  EXPECT_EQ(counters["expand.products"], sparse::SpGemmFlops(a, a));
  EXPECT_EQ(counters["merge.output_nnz"], c->nnz());
}

/// WalkExpansion is the one dispatch order that Plan and Compute read. Per
/// kernel and in order, its blocks are Plan's expansion blocks one to one.
/// The pairs' first appearances in it open FirstDispatchOrder, which
/// Compute orders A's rows by: every pair once, nonzero-work pairs first.
TEST(ReorganizerTest, DispatchWalkMatchesPlanAndCompute) {
  const CsrMatrix inputs[] = {PowerLaw(3), PowerLaw(8),
                              testing_util::RandomMatrix(300, 300, 0.004, 5)};
  RegisterCoreAlgorithms();
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  int split_plans = 0;
  for (const char* name : {"reorganizer", "reorganizer-limiting",
                           "reorganizer-splitting", "reorganizer-gathering"}) {
    auto created = spgemm::AlgorithmRegistry::Global().Create(name);
    ASSERT_TRUE(created.ok());
    const auto* alg =
        dynamic_cast<const BlockReorganizerSpGemm*>(created->get());
    ASSERT_NE(alg, nullptr);
    for (size_t in = 0; in < std::size(inputs); ++in) {
      SCOPED_TRACE(std::string(name) + " on input " + std::to_string(in));
      const CsrMatrix& a = inputs[in];
      const spgemm::Workload w = spgemm::BuildWorkload(a, a);
      const BlockReorganizerSpGemm::Prepared prep = alg->Prepare(w, &device);

      std::map<std::string, std::vector<int64_t>> walked;
      std::vector<Index> first_seen;
      std::vector<uint8_t> seen(w.pair_work.size(), 0);
      WalkExpansion(prep, [&](const ExpansionBlock& block) {
        int64_t useful = 0;
        for (Index pair : block.pairs) {
          const size_t p = static_cast<size_t>(pair);
          const int64_t cols = block.micro_threads > 0
                                   ? w.a_col_nnz[p]
                                   : block.col_end - block.col_begin;
          useful += cols * w.b_row_nnz[p];
          if (!seen[p]) first_seen.push_back(pair);
          seen[p] = 1;
        }
        walked[block.kernel == ExpansionKernel::kDominators
                   ? "expansion-dominators"
                   : "expansion-main"]
            .push_back(useful);
      });
      auto plan = alg->Plan(a, a, device);
      ASSERT_TRUE(plan.ok());
      std::map<std::string, std::vector<int64_t>> planned;
      for (const gpusim::KernelDesc& k : plan->kernels) {
        if (k.phase != gpusim::Phase::kExpansion) continue;
        for (const gpusim::ThreadBlockDesc& tb : k.blocks) {
          planned[k.label].push_back(tb.useful_lane_ops);
        }
      }
      EXPECT_EQ(walked, planned);

      const std::vector<Index> order = FirstDispatchOrder(prep);
      ASSERT_EQ(order.size(), w.pair_work.size());
      ASSERT_LE(first_seen.size(), order.size());
      EXPECT_TRUE(
          std::equal(first_seen.begin(), first_seen.end(), order.begin()));
      std::vector<uint8_t> placed(order.size(), 0);
      for (size_t k = 0; k < order.size(); ++k) {
        const size_t p = static_cast<size_t>(order[k]);
        ASSERT_LT(p, placed.size());
        EXPECT_EQ(placed[p], 0) << "pair " << p << " ranked twice";
        placed[p] = 1;
        EXPECT_EQ(w.pair_work[p] > 0, k < first_seen.size()) << "rank " << k;
      }

      // The split plan never moves a pair's first dispatch, so Compute
      // prepares without one.
      split_plans += prep.split.has_value() ? 1 : 0;
      BlockReorganizerSpGemm::Prepared unsplit = prep;
      unsplit.split.reset();
      EXPECT_EQ(FirstDispatchOrder(unsplit), order);
      const BlockReorganizerSpGemm::Prepared deviceless =
          alg->Prepare(w, nullptr);
      EXPECT_FALSE(deviceless.split.has_value());
      EXPECT_EQ(FirstDispatchOrder(deviceless), order);
    }
  }
  EXPECT_GT(split_plans, 0);
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
