#include <gtest/gtest.h>

#include "core/auto_tune.h"
#include "core/workload_classifier.h"
#include "spgemm/workload_model.h"
#include "tests/test_util.h"

namespace spnet {
namespace core {
namespace {

using sparse::CsrMatrix;

TEST(AutoTuneTest, SkewedInputGetsBoundedDominatorCount) {
  const CsrMatrix a = testing_util::SkewedMatrix(800, 600, 51);
  const auto device = gpusim::DeviceSpec::TitanXp();
  auto config = AutoTune(a, a, device);
  ASSERT_TRUE(config.ok());

  const spgemm::Workload w = spgemm::BuildWorkload(a, a);
  const Classification c = Classify(w, *config);
  // The target is ~4 blocks per SM; allow generous slack for ties.
  EXPECT_GT(c.dominators.size(), 0u);
  EXPECT_LE(c.dominators.size(),
            static_cast<size_t>(12 * device.num_sms));
}

/// AutoTune picks alpha and beta; every other knob keeps its default.
TEST(AutoTuneTest, ChangesOnlyAlphaAndBeta) {
  const CsrMatrix a = testing_util::SkewedMatrix(800, 600, 51);
  auto config = AutoTune(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(config.ok());
  ReorganizerConfig expected;
  expected.alpha = config->alpha;
  expected.beta = config->beta;
  EXPECT_EQ(config->Fingerprint(), expected.Fingerprint());
}

TEST(AutoTuneTest, UniformInputGetsNoDominators) {
  const CsrMatrix a = testing_util::RandomMatrix(500, 500, 0.02, 53);
  auto config = AutoTune(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(config.ok());
  const spgemm::Workload w = spgemm::BuildWorkload(a, a);
  const Classification c = Classify(w, *config);
  // Uniform work: the threshold lands at/above the common value, so the
  // dominator bin stays small.
  EXPECT_LT(static_cast<double>(c.dominators.size()),
            0.05 * static_cast<double>(w.pair_work.size()));
}

/// The heaviest 2% of nonzero output rows are limited: the tuned beta
/// limits some rows, and well under a quarter of them.
TEST(AutoTuneTest, LimitedRowsNearRequestedFraction) {
  const CsrMatrix a = testing_util::SkewedMatrix(1000, 500, 55);
  auto config = AutoTune(a, a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(config.ok());
  const spgemm::Workload w = spgemm::BuildWorkload(a, a);
  const Classification c = Classify(w, *config);
  int64_t nonzero_rows = 0;
  for (int64_t v : w.row_chat) {
    if (v > 0) ++nonzero_rows;
  }
  const double fraction = static_cast<double>(c.limited_rows.size()) /
                          static_cast<double>(nonzero_rows);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 0.25);
}

/// The tuned knobs stay inside alpha in [4, 256] and beta in [2, 64], on
/// skewed inputs (hubs push the thresholds up) and uniform ones.
TEST(AutoTuneTest, RespectsClamps) {
  const CsrMatrix inputs[] = {testing_util::SkewedMatrix(300, 200, 57),
                              testing_util::SkewedMatrix(1000, 500, 55),
                              testing_util::RandomMatrix(500, 500, 0.02, 53)};
  for (const CsrMatrix& a : inputs) {
    auto config = AutoTune(a, a, gpusim::DeviceSpec::TitanXp());
    ASSERT_TRUE(config.ok());
    EXPECT_GE(config->alpha, 4.0);
    EXPECT_LE(config->alpha, 256.0);
    EXPECT_GE(config->beta, 2.0);
    EXPECT_LE(config->beta, 64.0);
  }
}

TEST(AutoTuneTest, EmptyMatrixYieldsDefaults) {
  sparse::CooMatrix coo(16, 16);
  auto a = CsrMatrix::FromCoo(coo);
  auto config = AutoTune(*a, *a, gpusim::DeviceSpec::TitanXp());
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config->alpha, ReorganizerConfig{}.alpha);
}

TEST(AutoTuneTest, DimensionMismatchRejected) {
  const CsrMatrix a = testing_util::RandomMatrix(5, 6, 0.5, 1);
  const CsrMatrix b = testing_util::RandomMatrix(5, 6, 0.5, 2);
  EXPECT_FALSE(AutoTune(a, b, gpusim::DeviceSpec::TitanXp()).ok());
}

}  // namespace
}  // namespace core
}  // namespace spnet
