// Tests for the central algorithm registry: baseline seeding,
// duplicate and unknown names, the core registrations layered on top, and
// the ReorganizerConfig validation that gates algorithm construction.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/block_reorganizer.h"
#include "core/reorganizer_config.h"
#include "core/suite.h"
#include "spgemm/algorithm.h"
#include "spgemm/algorithm_registry.h"

#include "gtest/gtest.h"

namespace spnet {
namespace {

TEST(AlgorithmRegistryTest, GlobalSeedsBaselines) {
  auto& registry = spgemm::AlgorithmRegistry::Global();
  for (const char* name : {"row-product", "outer-product", "cusparse",
                           "cusp", "bhsparse", "mkl", "acspgemm",
                           "nsparse"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto algorithm = registry.Create(name);
    ASSERT_TRUE(algorithm.ok()) << name;
    ASSERT_NE(*algorithm, nullptr) << name;
  }
}

TEST(AlgorithmRegistryTest, UnknownNameIsNotFoundAndListsChoices) {
  auto& registry = spgemm::AlgorithmRegistry::Global();
  auto algorithm = registry.Create("no-such-algorithm");
  ASSERT_FALSE(algorithm.ok());
  EXPECT_EQ(algorithm.status().code(), StatusCode::kNotFound);
  // The error is self-serve: it names the valid choices.
  EXPECT_NE(algorithm.status().message().find("row-product"),
            std::string::npos);
}

TEST(AlgorithmRegistryTest, DuplicateRegistrationIsRejected) {
  auto& registry = spgemm::AlgorithmRegistry::Global();
  const Status s = registry.Register("row-product", [] {
    return Result<std::unique_ptr<spgemm::SpGemmAlgorithm>>(
        spgemm::MakeRowProduct());
  });
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  // The original entry survives.
  auto algorithm = registry.Create("row-product");
  ASSERT_TRUE(algorithm.ok());
}

TEST(AlgorithmRegistryTest, NamesAreSortedAndComplete) {
  core::RegisterCoreAlgorithms();
  auto& registry = spgemm::AlgorithmRegistry::Global();
  const std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"reorganizer", "reorganizer-limiting", "reorganizer-splitting",
        "reorganizer-gathering"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // RegisterCoreAlgorithms is idempotent: calling it again must not die
  // on duplicate names.
  core::RegisterCoreAlgorithms();
}

// Regression test for a data race the thread-safety annotation pass
// surfaced: registration is not confined to startup (every BatchRunner
// constructor calls core::RegisterCoreAlgorithms()), yet the registry maps
// used to be unsynchronized, so a first-time registration racing a
// concurrent Create()/Names() was a read/write race. The registry now
// locks internally; this hammers registration and queries from many
// threads at once (run under TSan in CI).
TEST(AlgorithmRegistryTest, ConcurrentRegistrationAndQueriesAreSafe) {
  auto& registry = spgemm::AlgorithmRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kIterations = 50;
  std::atomic<int> created{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &created, t] {
      for (int i = 0; i < kIterations; ++i) {
        if (t % 2 == 0) {
          // Writer threads: register fresh names (the "zz-" prefix keeps
          // them after the real algorithms in sorted Names() output) and
          // re-run the idempotent core registration.
          const Status s = registry.Register(
              "zz-race-" + std::to_string(t) + "-" + std::to_string(i), [] {
                return Result<std::unique_ptr<spgemm::SpGemmAlgorithm>>(
                    spgemm::MakeRowProduct());
              });
          EXPECT_TRUE(s.ok()) << s.ToString();
          core::RegisterCoreAlgorithms();
        } else {
          // Reader threads: the full query surface.
          auto algorithm = registry.Create("row-product");
          if (algorithm.ok()) created.fetch_add(1);
          EXPECT_TRUE(registry.Contains("outer-product"));
          EXPECT_FALSE(registry.Names().empty());
          auto missing = registry.Create("zz-definitely-missing");
          EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(created.load(), (kThreads / 2) * kIterations);
}

TEST(AlgorithmRegistryTest, SuitesPreservePlotOrder) {
  const auto suite = core::MakeAblationSuite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0]->name(), "B-Limiting");
  EXPECT_EQ(suite[1]->name(), "B-Splitting");
  EXPECT_EQ(suite[2]->name(), "B-Gathering");
  EXPECT_EQ(suite[3]->name(), "Block-Reorganizer");

  const auto all = core::MakeAllAlgorithms();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front()->name(), "row-product");
  EXPECT_EQ(all.back()->name(), "Block-Reorganizer");
}

TEST(ReorganizerConfigTest, DefaultConfigValidates) {
  EXPECT_TRUE(core::ReorganizerConfig().Validate().ok());
}

TEST(ReorganizerConfigTest, RejectsBadKnobs) {
  {
    core::ReorganizerConfig config;
    config.alpha = 0.0;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    core::ReorganizerConfig config;
    config.beta = -1.0;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    core::ReorganizerConfig config;
    config.splitting_factor_override = 3;  // not a power of two
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    core::ReorganizerConfig config;
    config.splitting_factor_override = 64;  // power of two: fine
    EXPECT_TRUE(config.Validate().ok());
  }
  {
    core::ReorganizerConfig config;
    config.limiting_extra_shmem = -1;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    core::ReorganizerConfig config;
    config.block_size = 48;  // not a multiple of the warp size
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
}

/// Fingerprint is the plan-cache key's config part: changing any one knob
/// must change it, and no two single-knob changes may collide.
TEST(ReorganizerConfigTest, FingerprintSeparatesEveryKnob) {
  std::vector<core::ReorganizerConfig> configs(9);
  configs[1].enable_splitting = false;
  configs[2].enable_gathering = false;
  configs[3].enable_limiting = false;
  configs[4].alpha = 16.0;
  configs[5].beta = 5.0;
  configs[6].splitting_factor_override = 8;
  configs[7].limiting_extra_shmem = 0;
  configs[8].block_size = 128;
  std::vector<uint64_t> fingerprints;
  for (const core::ReorganizerConfig& config : configs) {
    ASSERT_TRUE(config.Validate().ok());
    fingerprints.push_back(config.Fingerprint());
  }
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    for (size_t j = i + 1; j < fingerprints.size(); ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j]) << i << " vs " << j;
    }
  }
}

TEST(ReorganizerConfigTest, MakeBlockReorganizerReportsInvalidConfig) {
  core::ReorganizerConfig config;
  config.alpha = -2.0;
  auto algorithm = core::MakeBlockReorganizer(config);
  ASSERT_FALSE(algorithm.ok());
  EXPECT_EQ(algorithm.status().code(), StatusCode::kInvalidArgument);

  auto valid = core::MakeBlockReorganizer(core::ReorganizerConfig());
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ((*valid)->name(), "Block-Reorganizer");
}

}  // namespace
}  // namespace spnet
